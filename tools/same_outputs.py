"""Hash what the benchmark workloads print and write, to compare two checkouts.

    python3 tools/same_outputs.py --passes 2 --seeds 1 7
    python3 tools/same_outputs.py --workloads certify --seeds 1

Each workload of bench/workloads.py is set up in a fresh temporary directory
and run for the given number of passes, every operation in-process through
`formlift.cli.dispatch` from this checkout's `src/`.  One line is printed
per workload and seed, with two sha256 digests: `prints=` covers the output
of set-up, then each operation's argv, exit code, stdout and stderr, and
`files=` the bytes of every file under the directory after set-up and after
every pass.  So a change of file format shows in `files=` alone, while
`prints=` still tells whether the answers moved.  The directory's own path
is replaced by a fixed token everywhere first, so two checkouts print the
same digests exactly when their outputs agree.  The benchmark files are
imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

MODULES = ("formula", "polytope", "lpsolve", "hull", "measures", "instances",
           "verify", "cli")
MASK = b"<workdir>"


def _captured(fn, *args):
    """(result, stdout, stderr) of fn(*args)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def _outputs(name: str, seed: int, passes: int) -> tuple[str, str, int]:
    """(prints digest, files digest, operation count) of one workload at one seed."""
    mods = {m: importlib.import_module(f"formlift.{m}") for m in MODULES}
    prints, files = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp).resolve()
        prefix = str(workdir).encode()

        def add(digest, *parts):
            for part in parts:
                data = part if isinstance(part, bytes) else str(part).encode()
                data = data.replace(prefix, MASK)
                digest.update(len(data).to_bytes(8, "big") + data)

        def add_files():
            for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
                add(files, path.relative_to(workdir).as_posix(), path.read_bytes())

        plan, out, err = _captured(workloads.WORKLOADS[name], mods, seed, workdir)
        add(prints, "setup", out, err)
        add_files()
        count = 0
        for ops in itertools.islice(plan.passes(), passes):
            for op in ops:
                code, out, err = _captured(mods["cli"].dispatch, list(op.argv))
                add(prints, " ".join(op.argv), code, out, err)
                count += 1
            add_files()
    return prints.hexdigest(), files.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    for name in args.workloads:
        for seed in args.seeds:
            prints, files, count = _outputs(name, seed, args.passes)
            print(f"{name} seed={seed} passes={args.passes} ops={count} "
                  f"prints={prints} files={files}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
