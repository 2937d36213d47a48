"""Count the `Fraction`s the benchmark workloads make, to compare two checkouts.

    python3 tools/fraction_counts.py --passes 2 --seeds 7
    python3 tools/fraction_counts.py --workloads certify --seeds 1 7

Each workload of bench/workloads.py is set up in a fresh temporary directory
and run for the given number of passes, every operation in-process through
`formlift.cli.dispatch` from this checkout's `src/`.  cProfile is on during
the operations only, not during set-up, and one line is printed per
workload and seed: `new=` counts the calls of `Fraction.__new__`, every
`Fraction` constructed, and `cmp=` the calls of its comparisons `__lt__`,
`__le__`, `__gt__`, `__ge__` and `__eq__`.  The counts are exact and do not
depend on the machine, so one run per side is enough.  The set-up and the
paths are those of tools/same_outputs.py; the benchmark files are imported,
never changed.
"""

from __future__ import annotations

import argparse
import cProfile
import fractions
import importlib
import itertools
import pstats
import sys
import tempfile
from pathlib import Path

from same_outputs import MODULES, _captured, workloads

COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def _counts(name: str, seed: int, passes: int) -> tuple[int, int, int]:
    """(constructions, comparisons, operation count) of one workload at one seed."""
    mods = {m: importlib.import_module(f"formlift.{m}") for m in MODULES}
    prof = cProfile.Profile()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        plan, _, _ = _captured(workloads.WORKLOADS[name], mods, seed, Path(tmp).resolve())
        for ops in itertools.islice(plan.passes(), passes):
            for op in ops:
                prof.enable()
                _captured(mods["cli"].dispatch, list(op.argv))
                prof.disable()
                count += 1
    calls = {}
    for (path, _, func), (_, nc, _, _, _) in pstats.Stats(prof).stats.items():
        if path == fractions.__file__:
            calls[func] = calls.get(func, 0) + nc
    return calls.get("__new__", 0), sum(calls.get(f, 0) for f in COMPARISONS), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    for name in args.workloads:
        for seed in args.seeds:
            new, cmp, count = _counts(name, seed, args.passes)
            print(f"{name} seed={seed} passes={args.passes} ops={count} "
                  f"new={new} cmp={cmp}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
