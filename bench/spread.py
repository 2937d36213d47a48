"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 bench/spread.py --seeds 10 [--workload certify] [--trace-twice]

Runs `run.py` once per seed and workload, one process at a time, and prints
for each end-to-end metric the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json.  With --trace-twice it also makes two traced runs of
the first seed per workload and checks that the determinism guard's exact
counts agree.  The raw numbers go to .bench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace-twice", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)
    raw = {}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            line = _run(name, seed, 0)
            ok &= line["correct"] and line["failed"] == 0
            runs.append(line["metrics"])
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        raw[name] = runs
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            med, rel = spread(values)
            flag = "ok" if rel <= m["bound"] / 3 else ("within bound" if rel <= m["bound"]
                                                      else "OVER BOUND")
            print(f"  {name:<14} {m['name']:<12} median={med:.5g} {m['unit']} "
                  f"spread={rel:.3f} bound={m['bound']} {flag}", flush=True)
        if args.trace_twice:
            guards = []
            for _ in range(2):
                _run(name, seeds[0], 1)
                out = ROOT / ".bench_out" / f"{name}-seed{seeds[0]}-trace1.json"
                guards.append(json.loads(out.read_text())["guard"]["counts"])
            same = guards[0] == guards[1]
            ok &= same
            print(f"  {name:<14} determinism guard: {'identical' if same else 'DIFFERENT'} "
                  f"{guards[0]}", flush=True)
    (ROOT / ".bench_out" / "spread.json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
