"""Named instance families: covering systems and perfect matchings of K4.

Each generator packages a monotone reduced formula with the 0/1 set it
defines, enumerated when the dimension is small enough, and optionally a
reference list of inequalities known to be valid for the set.  Instances
serialize as a bundle: a formula file, a reference polytope file when one
exists, and a manifest line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import formula as fm
from . import polytope as pt
from .hull import FacetList, _of_int_rows

SET_ENUM_LIMIT = 12
DELTA_LIMIT = 3


@dataclass(frozen=True)
class Instance:
    """A formula, its 0/1 set when enumerable, and known valid inequalities."""

    name: str
    formula: fm.Formula
    n: int
    points: fm.PointSet01 | None = None
    reference: FacetList | None = None

    def __post_init__(self):
        if self.formula.n != self.n:
            raise ValueError(f"formula is over {self.formula.n} variables, expected {self.n}")
        if self.points is not None:
            if self.points.n != self.n:
                raise ValueError("point set dimension does not match the instance")
            if fm.enumerate_set(self.formula) != self.points:
                raise ValueError("formula does not define the stated point set")
        if self.reference is not None and self.reference.n != self.n:
            raise ValueError("reference polytope dimension does not match the instance")


def _arith_points(n, keep):
    if n > SET_ENUM_LIMIT:
        return None
    pts = [p for p in itertools.product((0, 1), repeat=n) if keep(p)]
    return fm.point_set(n, pts)


def gen_bz(n: int) -> Instance:
    """All-but-one covering: clauses sum_{i != j} x_i >= 1 for each j.

    The 0/1 solutions are the points with at least two ones, so the single
    reference row is sum x_i >= 2.  No unit box is built over more than
    `polytope.BOX_LIMIT` variables, so such an n is refused before its
    n x n clause matrix.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    pt._check_box(n)
    rows = [[0 if i == j else 1 for i in range(n)] for j in range(n)]
    phi = fm.covering_cnf(rows)
    pts = _arith_points(n, lambda p: sum(p) >= 2)
    ones = tuple(Fraction(1) for _ in range(n))
    ref = FacetList(n, ((ones, Fraction(2)),))
    return Instance(f"bz{n}", phi, n, pts, ref)


def gen_covering(A, name: str = "covering") -> Instance:
    """Covering system Ax >= e for a 0/1 matrix with no zero rows."""
    rows = [tuple(int(v) for v in r) for r in A]
    phi = fm.covering_cnf(rows)
    n = phi.n
    pts = _arith_points(n, lambda p: all(sum(p[j] * r[j] for j in range(n)) >= 1 for r in rows))
    return Instance(name, phi, n, pts, None)


def gen_bounded_covering(A, b, name: str = "bounded-covering") -> Instance:
    """Bounded covering Ax >= b for small nonnegative integer entries.

    Row i becomes a threshold formula over sum_j A_ij inputs, pushed down to
    the x variables by the multiplicity map that repeats variable j exactly
    A_ij times, j ascending.  Entries above DELTA_LIMIT are rejected, as are
    rows that no 0/1 point can satisfy.
    """
    rows = [tuple(int(v) for v in r) for r in A]
    b = [int(v) for v in b]
    if not rows:
        raise ValueError("matrix has no rows")
    if len(b) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(b)} thresholds")
    n = len(rows[0])
    parts = []
    for i, (r, bi) in enumerate(zip(rows, b)):
        if len(r) != n:
            raise ValueError(f"row {i + 1} has length {len(r)}, expected {n}")
        if any(v < 0 or v > DELTA_LIMIT for v in r):
            raise ValueError(f"row {i + 1} has an entry outside 0..{DELTA_LIMIT}")
        if bi < 1:
            raise ValueError(f"threshold {i + 1} must be positive")
        if sum(r) < bi:
            raise ValueError(f"row {i + 1} cannot reach its threshold {bi}")
        h = [j + 1 for j in range(n) for _ in range(r[j])]
        thr = fm.threshold_formula(bi, len(h))
        parts.append(fm.substitute(thr, h, n))
    phi = fm.and_all(parts, n)
    pts = _arith_points(n, lambda p: all(
        sum(p[j] * r[j] for j in range(n)) >= bi for r, bi in zip(rows, b)))
    return Instance(name, phi, n, pts, None)


K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

K4_MATCHINGS = ((0, 5), (1, 4), (2, 3))


def _cut_row(U):
    return tuple(Fraction(1) if (a in U) != (b in U) else Fraction(0) for a, b in K4_EDGES)


def gen_matching_k4() -> Instance:
    """Edge sets of K4 whose support contains a perfect matching.

    Variables follow the edge order (1,2),(1,3),(1,4),(2,3),(2,4),(3,4); the
    formula is the disjunction over the three perfect matchings of the
    conjunction of their two edges.  The reference carries the odd-cut rows
    x(delta(U)) >= 1 for odd U (both sizes produce the same four rows) as
    facets and the degree rows x(delta(u)) = 1 as equations.
    """
    n = len(K4_EDGES)
    phi = fm.or_all(
        [fm.land(fm.lit(i + 1, n), fm.lit(j + 1, n)) for i, j in K4_MATCHINGS], n)
    pts = _arith_points(n, lambda p: any(p[i] and p[j] for i, j in K4_MATCHINGS))
    cuts = []
    for size in (1, 3):
        for U in itertools.combinations((1, 2, 3, 4), size):
            row = _cut_row(set(U))
            if row not in cuts:
                cuts.append(row)
    one = Fraction(1)
    ref = FacetList(n,
                    tuple((row, one) for row in cuts),
                    tuple((_cut_row({u}), one) for u in (1, 2, 3, 4)))
    return Instance("matching-k4", phi, n, pts, ref)


# ---------------------------------------------------------------------------
# bundles


def save_bundle(inst: Instance, directory) -> list:
    """Write the instance files and record it in the directory manifest.

    Produces <name>.bool with the formula, <name>.ef with the reference rows
    when a reference exists, and appends `instance <name> n=<n>` to
    manifest.txt unless already present.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = []
    fpath = d / f"{inst.name}.bool"
    fpath.write_text(inst.formula.to_text() + "\n")
    paths.append(fpath)
    if inst.reference is not None:
        rpath = d / f"{inst.name}.ef"
        rpath.write_text(inst.reference.to_text())
        paths.append(rpath)
    man = d / "manifest.txt"
    line = f"instance {inst.name} n={inst.n}"
    lines = man.read_text().splitlines() if man.exists() else []
    if line not in lines:
        lines.append(line)
        man.write_text("\n".join(lines) + "\n")
    paths.append(man)
    return paths


def load_bundle(directory, name: str | None = None) -> Instance:
    """Rebuild an instance from its bundle files.

    With no name the manifest must list exactly one instance.  The point set
    is re-enumerated when the dimension allows, so the constructor invariant
    is rechecked on load.
    """
    d = Path(directory)
    man = d / "manifest.txt"
    if not man.exists():
        raise ValueError(f"no manifest in {d}")
    entries = {}
    for lineno, raw in enumerate(man.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "instance" or not parts[2].startswith("n="):
            raise ValueError(f"manifest line {lineno}: expected 'instance <name> n=<n>'")
        entries[parts[1]] = int(parts[2][2:])
    if name is None:
        if len(entries) != 1:
            raise ValueError("manifest lists several instances; pass a name")
        name = next(iter(entries))
    if name not in entries:
        raise ValueError(f"instance {name!r} not in manifest")
    n = entries[name]
    phi = fm.parse((d / f"{name}.bool").read_text(), n)
    ref = None
    rpath = d / f"{name}.ef"
    if rpath.exists():
        ref = _read_facets(rpath.read_text(), n)
    pts = fm.enumerate_set(phi) if n <= SET_ENUM_LIMIT else None
    return Instance(name, phi, n, pts, ref)


def _read_facets(text: str, n: int) -> FacetList:
    """Parse yvars-0 formulation text back into facets and equations.

    The text goes through the `.ef` parser of `polytope`, so malformed input
    raises its ValueError.  Rows whose negation also appears are folded back
    into a single equation; the remaining rows stay inequalities.  The int
    rows are canonical, so a negation is found by comparing int rows, and
    they go into the FacetList as they are.
    """
    m, d, rows, _, _ = pt._parse_text(text)
    if d != 0:
        raise ValueError(f"reference must be an x-space file (yvars 0), got yvars {d}")
    if m != n:
        raise ValueError(f"reference is over {m} variables, expected {n}")
    used = [False] * len(rows)
    facets, equations = [], []
    for i, (a, b, l) in enumerate(rows):
        if used[i]:
            continue
        used[i] = True
        neg = (pt._neg(a), -b, l)
        j = next((k for k in range(i + 1, len(rows)) if not used[k] and rows[k] == neg), None)
        if j is None:
            facets.append(rows[i])
        else:
            used[j] = True
            equations.append(rows[i])
    return _of_int_rows(n, facets, equations)
