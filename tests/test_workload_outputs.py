"""The benchmark workloads' outputs, pinned by `tools/same_outputs.py` digests.

One pass of each workload at seed 7 is hashed in a subprocess: `prints=`
covers every operation's argv, exit code and output, `files=` every file
the workload leaves.  A change that moves either digest changes what the
program answers or writes.  One pass of closure-chain at seed 7 is also
counted by `tools/fraction_counts.py`: it makes no `Fraction`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "lift-optimize": (17, "b4bc4e7e8f97409dec72a8774064fef641ad72573879c7cb488f3075940a11ee",
                      "c6c9d4c18bac797ad1531e508552ac0981a6b8f7d1c04ba5113243e13d70e2d6"),
    "closure-chain": (12, "f813d2ea0cc995fc0f7b273dffff3bfe93bfccd1d4490d11cf438d1fa28a1b67",
                      "cb460950a35801d7e78c91128a882bff5a1c5827b4c13bfcc68a3245af2400fe"),
    "certify": (30, "8a4d6fd950e0ff5662bc2f9ec0c942affa5c1973f0097e7e00ab3c805988bf77",
                "85653cb42142aab0bda2e6388eca726ab2691ffb254407b6cd00e1985320c474"),
}


def test_workload_outputs_are_pinned():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "same_outputs.py"),
                          "--passes", "1", "--seeds", "7"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = {}
    for line in run.stdout.splitlines():
        name, _, _, ops, prints, files = line.split()
        got[name] = (int(ops.removeprefix("ops=")), prints.removeprefix("prints="),
                     files.removeprefix("files="))
    for name, want in PINNED.items():
        assert got.get(name) == want, (
            f"{name}: outputs moved from the pinned digests; run "
            "`python3 tools/same_outputs.py --passes 2 --seeds 1 7` on clean copies "
            "of the parent and the change to see which answers or files differ")


def test_closure_chain_makes_no_fraction():
    # the hull rounds of `verify pitch|notch` run on ints from the cube's rows
    # to the priced vertex lists; the counts are exact
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "fraction_counts.py"),
                          "--passes", "1", "--seeds", "7", "--workloads", "closure-chain"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["new=0", "cmp=0"], run.stdout
