"""formlift benchmark: three seeded workloads, end to end and layer by layer.

    python3 bench/run.py --workload lift-optimize --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1              # every workload, one process each
    python3 bench/run.py --seed 1 --trace 1    # the same, traced

One workload runs in one process, with no threads.  Set-up (importing
formlift, writing the bundles and the seeded inputs) is timed SETUP_REPEATS
times, about half before and half after the timed phase, and `setup_s` is
the median.  The reference answers are computed after set-up, outside every
timing.  The timed phase then runs whole passes of the workload's
operations, each a `formlift` command run in-process, until `--seconds`
have passed, and checks every answer.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics that BENCHMARK.json lists; with `--trace 1` it carries
the per-layer metrics from spans recorded around every public function of
the formlift modules.  The lines before it print every metric by name and
unit, including those not in BENCHMARK.json, and the full result, with the
run record, is written under `.bench_out/`.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
HASH_SEED = "0"
# counts that must repeat exactly for the same seed and source tree
GUARD = ("lpsolve.calls", "lpsolve.rows_in", "polytope.ef_rows",
         "polytope.emptiness_checks", "hull.facets_out", "measures.examined",
         "measures.priced")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# run record


def _commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_hash(*dirs):
    h = hashlib.sha256()
    for base in (SRC / "formlift", *dirs):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _record(mods, args):
    q = mods["lpsolve"]._Q
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "backend": f"{q.__module__}.{q.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(CPUS),
        "commit": _commit(),
        "src_sha256": _source_hash(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


# ---------------------------------------------------------------------------
# set-up, timed phase


# The allowed processors, taken in turn by successive operations.  The two
# processors of the machine the benchmark was written on at times differ in
# speed by 30 to 50%, and the scheduler keeps a process on one of them for
# minutes, so without turns a run's numbers depend on where it landed.
CPUS = sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def _turn(i):
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def _fresh_modules():
    """Import the formlift modules anew, so every set-up pays the imports."""
    for name in [m for m in sys.modules if m == "formlift" or m.startswith("formlift.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"formlift.{layer}") for layer in spans.LAYERS}


def _quiet():
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def _setup(build, seed, work, k, tracer=None):
    """Set-up number k, in its own directory under `work`; returns
    (modules, plan, seconds)."""
    workdir = work / f"setup{k}"
    workdir.mkdir(parents=True)
    with _turn(k):
        t0 = time.perf_counter()
        mods = _fresh_modules()
        if tracer is not None:
            tracer.install(mods)
        try:
            with _quiet():
                plan = build(mods, seed, workdir)
        finally:
            if tracer is not None:
                tracer.remove()
        return mods, plan, time.perf_counter() - t0


def _run_ops(cli, ops, records, tracer=None, log=None, turn=0):
    """Run a list of operations, appending (kind, label, latency_s, correct)
    to `records`.  An operation that raises or answers wrongly is counted
    and the run goes on.  Operation i runs on processor turn + i."""
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = len(records)
        out = io.StringIO()
        with _turn(turn + i):
            start = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.dispatch(op.argv)
                latency = clock() - start
                ok = bool(op.expect(code, out.getvalue()))
                why = f"exit {code}, output {out.getvalue().strip()!r}"
            except (Exception, SystemExit):
                latency = clock() - start
                ok = False
                why = traceback.format_exc(limit=3)
        if not ok and log is not None:
            log.append(f"{op.label}: {' '.join(op.argv)}: {why}")
        records.append((op.kind, op.label, latency, ok))
    return records


def _timed(cli, passes, seconds, tracer=None, log=None):
    """Run whole passes until `seconds` have passed; at least one pass.

    Each pass moves every operation to the next processor.  Returns
    (records, [(first record, end record, wall seconds) per pass]).
    """
    records, bounds = [], []
    t0 = time.perf_counter()
    while not bounds or time.perf_counter() - t0 < seconds:
        start, begin = len(records), time.perf_counter()
        _run_ops(cli, next(passes), records, tracer, log, turn=len(bounds))
        bounds.append((start, len(records), time.perf_counter() - begin))
    return records, bounds


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(percentile, value): the highest sample with at least ten samples
    beyond it, and its percentile; (None, None) with ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return None, None
    return 100 * (n - 10) / n, xs[n - 11]


def end_to_end(records, passes, latency_kind, setup_times):
    """Every end-to-end metric: name -> (value, unit), plus notes.

    `passes` holds (first record, end record, wall seconds) per pass; the
    throughput counts whole passes only.
    """
    lat = [r[2] for r in records if r[0] == latency_kind]
    correct = sum(r[3] for r in records)
    q, tail_value = tail(lat)
    prefix = "query" if latency_kind == "query" else "check"
    m = {
        "ops_per_s": (correct / sum(wall for _, _, wall in passes), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_value if q is not None else max(lat), "s"),
        "failed_frac": ((len(records) - correct) / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lifts = {}
    for kind, label, latency, _ in records:
        if kind == "lift":
            lifts.setdefault(label, []).append(latency)
    if lifts:
        # one lift of every bundle, each at its median time
        m["build_s"] = (sum(statistics.median(v) for v in lifts.values()), "s")
    notes = {"latency_samples": len(lat), "tail_percentile": q,
             "names": {"op_p50_s": f"{prefix}_p50_s", "op_tail_s": f"{prefix}_tail_s"}}
    return m, notes


def _overhead(mods, ops):
    """Wall time of the operations untraced and traced.  Each operation runs
    both ways back to back on the same processor, and which way goes first
    alternates, since the second run of a command finds warmer caches."""
    times = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = spans.Tracer() if traced else None
            if tracer is not None:
                tracer.install(mods)
            try:
                times[traced] += _run_ops(mods["cli"], [op], [], tracer, turn=i)[0][2]
            finally:
                if tracer is not None:
                    tracer.remove()
    return times[False], times[True]


def _guard(workload, seed, counts):
    """Compare the exact counts with an earlier run of the same seed, program
    and benchmark."""
    key = _source_hash(Path(__file__).resolve().parent)[:16]
    path = OUT / "guard" / f"{key}-{workload}-seed{seed}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return "first"
    return "match" if json.loads(path.read_text()) == counts else "MISMATCH"


# ---------------------------------------------------------------------------
# one workload


def run_workload(args):
    if not (SRC / "formlift" / "__init__.py").is_file():
        print(f"bench: no formlift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = _spec()
    build = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS // 2 + 1):
            mods, plan, dt = _setup(build, args.seed, work, k)
            setup_times.append(dt)
        setup_tracer = None
        if args.trace:
            setup_tracer = spans.Tracer()
            mods, plan, _ = _setup(build, args.seed, work, SETUP_REPEATS, setup_tracer)
        if not mods["cli"].__file__.startswith(str(SRC)):
            raise RuntimeError("formlift was not imported from this checkout")
        plan.reference()

        failures = []
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(mods)
        try:
            records, passes = _timed(mods["cli"], plan.passes(), args.seconds,
                                     tracer, failures)
        finally:
            if tracer is not None:
                tracer.remove()

        # the other set-ups come after the timed phase, so that the median
        # does not rest on one moment of the machine
        for k in range(len(setup_times), SETUP_REPEATS):
            setup_times.append(_setup(build, args.seed, work, k)[2])
        record = _record(mods, args)
        metrics, notes = end_to_end(records, passes, plan.latency_kind, setup_times)
        first = passes[0][1]
        result = {"record": record, "attempted": len(records),
                  "failed": sum(not r[3] for r in records), "passes": passes,
                  "end_to_end": metrics, "notes": notes, "failures": failures[:20],
                  "ops": records}
        if tracer is not None:
            cut = next((i for i, s in enumerate(tracer.spans) if s.op >= first),
                       len(tracer.spans))
            layers = spans.layer_metrics(tracer.spans, setup_tracer.spans, len(passes))
            counts = spans.layer_metrics(tracer.spans[:cut])
            guard = {name: round(counts[name][0]) for name in GUARD}
            plain_s, traced_s = _overhead(mods, next(plan.passes()))
            layers["trace.overhead_s"] = (traced_s - plain_s, "s")
            layers["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
            layers["trace.spans"] = (len(tracer.spans), "count")
            result["per_layer"] = layers
            result["guard"] = {"ops": first, "counts": guard,
                               "verdict": _guard(args.workload, args.seed, guard)}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str) + "\n")
    _print(result, spec, args)
    return 0


def _print(result, spec, args):
    rec = result["record"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={result['attempted']} failed={result['failed']}")
    print("# record " + " ".join(f"{k}={rec[k]}" for k in
                                 ("backend", "python", "nproc", "commit", "src_sha256",
                                  "pythonhashseed")))
    for line in result["failures"][:5]:
        print(f"# FAILED {line}", file=sys.stderr)
    if args.trace:
        source, wanted = result["per_layer"], spec["per_layer"]
        for name, (value, unit) in source.items():
            print(f"{name:<28} {value:.6g} {unit}")
        g = result["guard"]
        print(f"# determinism guard over the first {g['ops']} operations: {g['verdict']} "
              + " ".join(f"{k}={v}" for k, v in g["counts"].items()))
    else:
        source, wanted = result["end_to_end"], spec["end_to_end"]
        notes = result["notes"]
        for name, (value, unit) in source.items():
            extra = ""
            if name == "op_tail_s":
                q, n = notes["tail_percentile"], notes["latency_samples"]
                extra = (f"  (p{q:.1f} of {n} samples)" if q is not None
                         else f"  (maximum of {n} samples)")
            print(f"{notes['names'].get(name, name):<28} {value:.6g} {unit}{extra}")
    correct = result["failed"] == 0 and (not args.trace or g["verdict"] != "MISMATCH")
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
                        for m in wanted}}
    print(json.dumps(line))


# ---------------------------------------------------------------------------
# entry point


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in (w["name"] for w in _spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="one workload; default: all, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set-iteration order must not differ between runs of one seed
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
