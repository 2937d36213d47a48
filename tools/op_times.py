"""Time the benchmark workloads' operations in-process, to compare two checkouts.

    python3 tools/op_times.py --passes 5 --seeds 7
    python3 tools/op_times.py --workloads lift-optimize --passes 5

The first line printed is `lines=`, the total that `wc -l src/formlift/*.py`
gives for this checkout, so that every timing comes with the size of the
code it timed.
Each workload of bench/workloads.py is set up in a fresh temporary directory
and run for the given number of passes, every operation in-process through
`formlift.cli.dispatch` from this checkout's `src/`.  One line is printed
per workload, seed and operation label (`optimize bz5`, `lift bz4`,
`pitch`, ...) with the count and the median wall time of its operations,
and `dd=` the mean number of double descriptions (`hull._dd_pointed`
calls) per operation.  Those are counted in a second, untimed run of the
same passes, under a counting wrapper that only this tool installs, so the
timed run calls the kernel unwrapped.
For lift-optimize one more line splits the bz5 `optimize` query into its
layers, each timed alone over the ten `BZ5_OBJECTIVES` for every pass:
`read=` the file read, `parse=` `polytope.from_text` of its text and
`solve=` `lpsolve.optimize` of the formulation.  Wall times depend on the
machine and its load, so compare checkouts by alternating runs.  The set-up
and the paths are those of tools/same_outputs.py; the benchmark files are
imported, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

from same_outputs import MODULES, ROOT, _captured, workloads


def _ms(times) -> str:
    return f"{statistics.median(times) * 1e3:.3f}ms"


def _line_count() -> int:
    """The total of `wc -l src/formlift/*.py`: the newlines in those files."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "formlift").glob("*.py"))


def _split(mods, ef, passes) -> dict:
    """Read, parse and solve times of the bz5 optimize queries on the file ef."""
    times = {"read": [], "parse": [], "solve": []}
    clock = time.perf_counter
    for _ in range(passes):
        for sense, c in workloads.BZ5_OBJECTIVES:
            t0 = clock()
            with open(ef) as fh:
                text = fh.read()
            t1 = clock()
            Q = mods["polytope"].from_text(text)
            t2 = clock()
            mods["lpsolve"].optimize(Q, c, sense)
            t3 = clock()
            for layer, t in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
                times[layer].append(t)
    return times


def _dd_counts(mods, plan, passes) -> dict:
    """Double descriptions per operation label over the passes, run again
    with `hull._dd_pointed` wrapped by a counter that is removed after."""
    hull = mods["hull"]
    real, calls = hull._dd_pointed, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    by_label = {}
    hull._dd_pointed = counting
    try:
        for ops in itertools.islice(plan.passes(), passes):
            for op in ops:
                calls[0] = 0
                _captured(mods["cli"].dispatch, list(op.argv))
                by_label.setdefault(op.label, []).append(calls[0])
    finally:
        hull._dd_pointed = real
    return by_label


def _times(name: str, seed: int, passes: int) -> list[str]:
    """The report lines of one workload at one seed."""
    mods = {m: importlib.import_module(f"formlift.{m}") for m in MODULES}
    by_label = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp).resolve()
        plan, _, _ = _captured(workloads.WORKLOADS[name], mods, seed, workdir)
        for ops in itertools.islice(plan.passes(), passes):
            for op in ops:
                t0 = time.perf_counter()
                _captured(mods["cli"].dispatch, list(op.argv))
                by_label.setdefault(op.label, []).append(time.perf_counter() - t0)
        dd = _dd_counts(mods, plan, passes)
        head = f"{name} seed={seed} passes={passes}"
        out = [f"{head} op={label.replace(' ', '-')} n={len(ts)} p50={_ms(ts)} "
               f"dd={statistics.mean(dd[label]):.1f}"
               for label, ts in sorted(by_label.items())]
        if name == "lift-optimize":
            split = _split(mods, workdir / "bz5.lift.ef", passes)
            out.append(f"{head} op=optimize-bz5 split: " + " ".join(
                f"{layer}={_ms(ts)}" for layer, ts in split.items()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    print(f"lines={_line_count()}", flush=True)
    for name in args.workloads:
        for seed in args.seeds:
            print("\n".join(_times(name, seed, args.passes)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
