"""Lifted relaxations of 0/1 sets as explicit extended formulations.

A formulation holds inequality rows over lifted variables y together with an
affine projection x = T y + t.  Boolean formulas act on a relaxation inside
the unit box: a literal restricts to the face x_i = 0 or x_i = 1, a
conjunction intersects the two lifted sets, and a disjunction takes the
convex hull of the union by the standard disjunctive construction.  All data
is exact rational.

The disjunctive rows are A1 y1 - lam*b1 >= 0 and A2 y2 + lam*b2 >= b2 with a
single fresh multiplier lam and no explicit 0 <= lam <= 1 rows: every
formulation rooted at `cube`/`from_hrep` carries the full unit-box rows, and
for such systems feasibility of {y : A y >= s*b} already forces s >= 0, so
each arm's block pins lam into [0,1].  `from_hrep` therefore always appends
the box rows; hand-built formulations fed to `balas_union` must satisfy the
same scale property.

Every formulation these constructors build in memory also carries the point
map of its own construction: for a 0/1 point p it returns the lifted y that
the construction assigns to p, or None when p is not in the set.  A box
keeps y = p when its rows hold at p, a face restriction keeps the base's y
when p has the fixed value, an intersection concatenates the two arms' ys,
and a union puts p in arm A with lam = 1 or in arm B with lam = 0 and zeros
the other arm.  Evaluating the rows at that y certifies membership and
nonemptiness without an LP; a y that fails the rows decides nothing.

They also carry the dual map of their construction: for an x-space
inequality a·x >= beta it returns multipliers u >= 0 on the rows, as a dict
from row index to multiplier (rows not listed weigh 0), with u·A = a·T and
u·b = beta - a·t exactly, where x = T y + t is the projection; or None.
Each call returns a new dict, which the composing map may extend.
Such a u proves the inequality valid (Balas's disjunctive duality).  A box
combines its sign rows, padded by a box row pair so that u·b is exact, or
uses a row equal to the inequality; a face x_i = v asks its base for the
inequality without the term a_i x_i when the face row pays for it, and for
the inequality itself otherwise; an intersection uses arm A's multipliers,
or arm B's plus the tie rows; a union adds both arms' multipliers, whose
exact right sides cancel the lam column.  A u is a proposal, checked on the
rows by `lpsolve` before it decides anything.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

from . import formula as fm
from . import hull, lpsolve
from .lpsolve import _int_rows, _neg, _pairs, _rational

# A linear expression over lifted variables: ((index, coef), ...) sorted by
# index with nonzero coefficients.  A rational row (expr, rhs) means
# expr·y >= rhs; an int row (a, b, l) means (a/l)·y >= b/l.


def _dense(pairs, dim) -> tuple:
    out = [Fraction(0)] * dim
    for j, c in pairs:
        out[j] = c
    return tuple(out)


def _dense_row(row, dim) -> tuple:
    """The int row (a, b, l) as a dense `Fraction` row (coefficients, rhs)."""
    a, b, l = row
    return _dense(((j, Fraction(c, l)) for j, c in a), dim), Fraction(b, l)


def _shift(pairs, by) -> tuple:
    return tuple((j + by, c) for j, c in pairs)


@dataclass(frozen=True)
class ExtendedFormulation:
    """Polyhedron {x : exists y, rows(y), x = proj(y)} in exact rationals.

    `rows` are int rows (a, b, l) over y, each standing for (a/l)·y >= b/l:
    a holds (column, nonzero int) pairs sorted by column, b is an int and l
    the least common denominator of the row, so equal rational rows are
    equal int rows (see `lpsolve._int_rows`); each constructor builds them
    from its inputs' int rows.  `proj` gives one rational (expr, offset) per
    x coordinate.  `empty_marker` flags the canonical empty formulation,
    which carries the single unsatisfiable row 0 >= 1.
    `point_map` maps a 0/1 point to the lifted y its construction assigns
    (see the module docstring) or that a file's `wit` lines list, or is None
    for formulations built by hand or read from text without `wit` lines.
    `dual_map` maps an x-space inequality (a, beta) to the row multipliers
    its construction composes (see the module docstring), or is None for
    formulations built by hand and lifted ones read from text.  Neither map
    takes part in equality, hashing or the repr.  `is_hrep` and
    `witnesses` are computed once per formulation and kept.
    """

    n: int
    ydim: int
    rows: tuple
    proj: tuple
    empty_marker: bool = False
    point_map: object = field(default=None, compare=False, repr=False)
    dual_map: object = field(default=None, compare=False, repr=False)

    @cached_property
    def is_hrep(self) -> bool:
        """True when y is x itself: identity projection, rows in x-space."""
        if self.ydim != self.n:
            return False
        return all(pairs == ((i, Fraction(1)),) and off == 0
                   for i, (pairs, off) in enumerate(self.proj))

    @cached_property
    def witnesses(self) -> tuple:
        """(p, y) for each 0/1 point p, in lexicographic order, that the point
        map lifts to some y; empty without a map or above hull.HULL_LIMIT
        variables.  A y is a proposal: callers check it before trusting it."""
        return tuple(_lifted_points(self))

    def xspace_rows(self) -> list:
        """Rows as dense `Fraction` x-space constraints; only valid when is_hrep."""
        if not self.is_hrep:
            raise ValueError("formulation has genuine lifted variables; rows are not in x-space")
        return [_dense_row(row, self.n) for row in self.rows]


def _identity_proj(n) -> tuple:
    return tuple((((i, Fraction(1)),), Fraction(0)) for i in range(n))


def empty_formulation(n: int) -> ExtendedFormulation:
    """The canonical empty relaxation: one row 0 >= 1, identity projection."""
    return ExtendedFormulation(n, n, (((), 1, 1),), _identity_proj(n), True)


def cube(n: int) -> ExtendedFormulation:
    """The unit box [0,1]^n as an x-space formulation with 2n rows."""
    return from_hrep(n, [])


def from_hrep(n: int, rows) -> ExtendedFormulation:
    """x-space formulation from dense rows a·x >= rhs, clamped to the unit box.

    The full box rows are always appended (then exact duplicates dropped);
    they bound the feasible scale, which the disjunctive union relies on.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    out = []
    for a, rhs in rows:
        a = tuple(_rational(v) for v in a)
        if len(a) != n:
            raise ValueError(f"row has {len(a)} coefficients, expected {n}")
        out.append((_pairs(a), _rational(rhs)))
    return _boxed(n, _int_rows(out))


def _boxed(n, rows) -> ExtendedFormulation:
    """x-space formulation from int rows, with the unit-box rows appended."""
    out = list(rows)
    for i in range(n):
        out.append((((i, 1),), 0, 1))
        out.append((((i, -1),), -1, 1))
    rows = tuple(dict.fromkeys(out))
    return ExtendedFormulation(n, n, rows, _identity_proj(n),
                               point_map=lambda p: tuple(p) if lpsolve._holds(rows, p) else None,
                               dual_map=lambda a, beta: _box_dual(rows, a, beta))


def _box_dual(rows, a, beta):
    """Multipliers proving a·x >= beta on boxed x-space rows, or None.

    When the box alone implies it (the sum of the negative a_i is at least
    beta), a_i goes on x_i >= 0 for a_i > 0 and -a_i on -x_i >= -1 for
    a_i < 0; the slack e goes on both box rows of x_1, which add 0 >= -e,
    so that u·b is exactly beta.  Otherwise a row equal to the inequality
    gets multiplier 1.
    """
    low = sum(v for v in a if v < 0)
    if low >= beta:
        u = {}
        for i, v in enumerate(a):
            if v:
                u[rows.index((((i, 1),), 0, 1) if v > 0 else (((i, -1),), -1, 1))] = abs(v)
        if low > beta:
            for row in ((((0, 1),), 0, 1), (((0, -1),), -1, 1)):
                k = rows.index(row)
                u[k] = u.get(k, 0) + low - beta
        return u
    row = _int_rows(((_pairs(a), beta),))[0]
    return {rows.index(row): 1} if row in rows else None


def _face_map(base, i, value):
    """Point map of a face restriction x_(i+1) = value: the base's y on the face."""
    if base is None:
        return None
    return lambda p: base(p) if p[i] == value else None


def _meet_map(ma, mb):
    """Point map of an intersection: both arms' ys, concatenated."""
    if ma is None or mb is None:
        return None

    def point_map(p):
        ya = ma(p)
        if ya is None:
            return None
        yb = mb(p)
        return None if yb is None else ya + yb

    return point_map


def _union_map(ma, mb, dA, dB):
    """Point map of a disjunctive union: (yA, 0, 1) from arm A, else (0, yB, 0)."""
    if ma is None or mb is None:
        return None
    zA, zB = (0,) * dA, (0,) * dB

    def point_map(p):
        ya = ma(p)
        if ya is not None:
            return ya + zB + (1,)
        yb = mb(p)
        return None if yb is None else zA + yb + (0,)

    return point_map


def _face_dual(base, i, value, m):
    """Dual map of a face restriction x_(i+1) = value whose rows sit at m, m+1.

    When the face pays for the term a_i x_i (a_i·value > min(a_i, 0)), the
    base is asked for the inequality without it and |a_i| goes on row m
    (a_i > 0) or m+1; the base is asked for the inequality itself only when
    that fails, so each face makes one base call on the common path.
    """
    if base is None:
        return None
    if value.denominator == 1:  # int arithmetic on the common path
        value = value.numerator

    def dual_map(a, beta):
        ai = a[i]
        if ai * value > min(ai, 0):
            u = base(a[:i] + (0,) + a[i + 1:], beta - ai * value)
            if u is not None:
                u[m if ai > 0 else m + 1] = abs(ai)
                return u
        return base(a, beta)

    return dual_map


def _meet_dual(da, db, mA, ties):
    """Dual map of an intersection: arm A's multipliers, else arm B's, shifted
    past A's mA rows, plus |a_i| on tie row 2i (a_i > 0) or 2i+1 from `ties`."""
    if da is None or db is None:
        return None

    def dual_map(a, beta):
        u = da(a, beta)
        if u is not None:
            return u
        u = db(a, beta)
        if u is None:
            return None
        out = {k + mA: v for k, v in u.items()}
        for i, ai in enumerate(a):
            if ai:
                out[ties + 2 * i + (ai < 0)] = abs(ai)
        return out

    return dual_map


def _union_dual(da, db, mA):
    """Dual map of a disjunctive union: both arms' multipliers, B's shifted
    past A's mA rows.  Both are exact, so the lam column cancels."""
    if da is None or db is None:
        return None

    def dual_map(a, beta):
        u = da(a, beta)
        if u is None:
            return None
        w = db(a, beta)
        if w is None:
            return None
        for k, v in w.items():
            u[k + mA] = v
        return u

    return dual_map


def _cut_map(base, rows):
    """Point map of appended int rows: the base's y where it satisfies them."""
    if base is None:
        return None

    def point_map(p):
        y = base(p)
        return y if y is not None and lpsolve._holds(rows, y) else None

    return point_map


def face_restrict(Q: ExtendedFormulation, var: int, value) -> ExtendedFormulation:
    """Restrict to the face x_var = value (var is 1-based, value 0 or 1)."""
    if not 1 <= var <= Q.n:
        raise ValueError(f"variable x{var} out of range 1..{Q.n}")
    value = _rational(value)
    if Q.empty_marker:
        return Q
    pairs, off = Q.proj[var - 1]
    rhs = value - off
    new = _int_rows(((pairs, rhs), (_neg(pairs), -rhs)))
    return ExtendedFormulation(Q.n, Q.ydim, Q.rows + new, Q.proj,
                               point_map=_face_map(Q.point_map, var - 1, value),
                               dual_map=_face_dual(Q.dual_map, var - 1, value, len(Q.rows)))


def intersect(A: ExtendedFormulation, B: ExtendedFormulation) -> ExtendedFormulation:
    """Formulation of the intersection; adds 2n rows tying the projections."""
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    if A.empty_marker or B.empty_marker:
        return empty_formulation(A.n)
    dA = A.ydim
    ties = []
    for i in range(A.n):
        pa, ta = A.proj[i]
        pb, tb = B.proj[i]
        tie = pa + _shift(_neg(pb), dA)
        rhs = tb - ta
        ties.append((tie, rhs))
        ties.append((_neg(tie), -rhs))
    rows = A.rows + tuple((_shift(a, dA), b, l) for a, b, l in B.rows) + _int_rows(ties)
    return ExtendedFormulation(A.n, dA + B.ydim, rows, A.proj,
                               point_map=_meet_map(A.point_map, B.point_map),
                               dual_map=_meet_dual(A.dual_map, B.dual_map, len(A.rows),
                                                   len(A.rows) + len(B.rows)))


def balas_union(A: ExtendedFormulation, B: ExtendedFormulation) -> ExtendedFormulation:
    """Formulation of conv(A ∪ B) by the disjunctive construction.

    Variables are (y1, y2, lam); each arm's rows are scaled by its weight.
    No explicit bounds on lam are added: both arms must carry box-rooted
    rows (see the module docstring), which force 0 <= lam <= 1.  Marker
    arms are returned away before any rows are built.
    """
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    if A.empty_marker:
        return B
    if B.empty_marker:
        return A
    dA, dB = A.ydim, B.ydim
    lam = dA + dB
    # (a/l)·yA >= b/l becomes (a/l)·yA - (b/l)·lam >= 0, and (a/l)·yB >= b/l
    # becomes (a/l)·yB + (b/l)·lam >= b/l: the same rationals, so the same l
    rows = [(a + (((lam, -b),) if b else ()), 0, l) for a, b, l in A.rows]
    rows += [(_shift(a, dA) + (((lam, b),) if b else ()), b, l) for a, b, l in B.rows]
    proj = []
    for i in range(A.n):
        pa, ta = A.proj[i]
        pb, tb = B.proj[i]
        p = pa + _shift(pb, dA)
        if ta != tb:
            p = p + ((lam, ta - tb),)
        proj.append((p, tb))
    return ExtendedFormulation(A.n, dA + dB + 1, tuple(rows), tuple(proj),
                               point_map=_union_map(A.point_map, B.point_map, dA, dB),
                               dual_map=_union_dual(A.dual_map, B.dual_map, len(A.rows)))


def with_xspace_rows(Q: ExtendedFormulation, rows) -> ExtendedFormulation:
    """Append x-space constraints a·x >= rhs, translated through the projection.

    The point map is kept for the points whose lifted y satisfies the new
    rows; the dual map is kept as it is, since Q's rows come first.
    """
    if Q.empty_marker:
        return Q
    extra = []
    for a, rhs in rows:
        a = tuple(_rational(v) for v in a)
        if len(a) != Q.n:
            raise ValueError(f"row has {len(a)} coefficients, expected {Q.n}")
        expr, off = lpsolve._y_objective(Q, a)
        extra.append((expr, _rational(rhs) - off))
    extra = _int_rows(extra)
    return ExtendedFormulation(Q.n, Q.ydim, Q.rows + extra, Q.proj,
                               point_map=_cut_map(Q.point_map, extra), dual_map=Q.dual_map)


# ---------------------------------------------------------------------------
# lifting a formula over a relaxation


@dataclass(frozen=True)
class LiftReport:
    """Size accounting for one lift.

    `blocks` counts conjunction blocks applied as batched face restrictions,
    `elided_arms` counts disjunction arms dropped because they were proved
    empty, and `emptiness` records each feasibility decision in construction
    order as "<site>:<verdict>".  Of those decisions, `witnessed` were made by
    a 0/1 point whose lifted y satisfies every row and the rest, `lp_decided`,
    by an exact LP; every "empty" verdict is an LP's.  `route` is "ef" for
    the extended-formulation construction and "hull" for rounds compacted
    through vertex enumeration.  The row bound
    leaves(phi)*(base_rows+2) + 2n*and_count applies to the "ef" route: a
    leaf, literal or constant, takes at most base_rows+2 rows and each AND
    at most 2n more.  A reduced formula has and_count + or_count + 1
    leaves, which is size(phi) when it has no constant.
    """

    n: int
    formula_size: int
    base_rows: int
    ef_rows: int
    ef_ydim: int
    and_count: int
    or_count: int
    blocks: int
    elided_arms: int
    route: str = "ef"
    emptiness: tuple = ()
    witnessed: int = 0

    @property
    def lp_decided(self) -> int:
        return len(self.emptiness) - self.witnessed

    @property
    def row_bound(self) -> int:
        leaves = self.and_count + self.or_count + 1
        return leaves * (self.base_rows + 2) + 2 * self.n * self.and_count

    @property
    def within_bound(self) -> bool:
        return self.ef_rows <= self.row_bound

    def summary_line(self) -> str:
        return (f"rows={self.ef_rows} ydim={self.ef_ydim} base={self.base_rows} "
                f"size={self.formula_size} and={self.and_count} or={self.or_count} "
                f"blocks={self.blocks} elided={self.elided_arms} "
                f"checked={len(self.emptiness)} bound={self.row_bound} "
                f"route={self.route}")


def _count_kind(f: fm.Formula, kind: fm.Kind) -> int:
    """Binary `kind` operators in f: a chain of k operands counts k - 1."""
    own = len(f.children) - 1 if f.kind is kind else 0
    return own + sum(_count_kind(c, kind) for c in f.children)


def _restrict_block(Q, fixings, stats):
    ef = Q
    for var in sorted(fixings):
        ef = face_restrict(ef, var, fixings[var])
    stats["blocks"] += 1
    if _decide_empty(ef, "block", stats):
        return empty_formulation(Q.n)
    return ef


def _lifted_points(ef):
    """(p, y) for each 0/1 point p that ef's point map lifts, in lexicographic
    order; nothing without a map or when n exceeds hull.HULL_LIMIT."""
    point_map = ef.point_map
    if point_map is None or ef.n > hull.HULL_LIMIT:
        return
    for p in itertools.product((0, 1), repeat=ef.n):
        y = point_map(p)
        if y is not None:
            yield p, y


def _witnessed(ef) -> bool:
    """True when some 0/1 point's lifted y satisfies every row of ef.

    Such a y proves ef nonempty; finding no witness decides nothing.  The
    scan stops at the first witness.
    """
    return any(lpsolve._holds(ef.rows, y) for _, y in _lifted_points(ef))


def _decide_empty(ef, site, stats):
    if _witnessed(ef):
        stats["witnessed"] += 1
        empty = False
    else:
        empty = lpsolve.is_empty(ef)
    stats["emptiness"].append(f"{site}:{'empty' if empty else 'nonempty'}")
    return empty


def _lift_collapse(f, Q, stats):
    if f.kind is fm.Kind.OR:
        # a left fold over the chain; balas_union returns an empty arm away
        ef = _lift_collapse(f.children[0], Q, stats)
        for arm in f.children[1:]:
            other = _lift_collapse(arm, Q, stats)
            if ef.empty_marker or other.empty_marker:
                stats["elided_arms"] += 1
            ef = balas_union(ef, other)
        return ef
    split = fm.fixings(f)
    if split is None:
        return empty_formulation(Q.n)
    fixings, rest = split
    if not rest:
        return _restrict_block(Q, fixings, stats)
    # conjunction with at least one disjunction below: lift the OR
    # conjuncts, intersect them, then batch the literal fixings on top
    ef = _lift_collapse(rest[0], Q, stats)
    for p in rest[1:]:
        if ef.empty_marker:
            return ef
        other = _lift_collapse(p, Q, stats)
        if other.empty_marker:
            return other
        ef = intersect(ef, other)
        if _decide_empty(ef, "intersect", stats):
            return empty_formulation(Q.n)
    if ef.empty_marker:
        return ef
    if fixings:
        ef = _restrict_block(ef, fixings, stats)
    return ef


def lift(phi: fm.Formula, Q: ExtendedFormulation):
    """Lifted relaxation phi(Q) plus a LiftReport.

    Requires a reduced formula.  Every returned non-marker formulation is
    nonempty: emptiness is decided after each restriction block and each
    intersection, first by a 0/1 witness from the point map and otherwise by
    an exact feasibility solve, and empty disjunction arms are dropped before
    the union is formed.
    """
    if not phi.is_reduced():
        raise ValueError("formula must be reduced before lifting")
    if phi.n != Q.n:
        raise ValueError(f"dimension mismatch: formula {phi.n}, relaxation {Q.n}")
    stats = {"blocks": 0, "elided_arms": 0, "emptiness": [], "witnessed": 0}
    if Q.empty_marker:
        ef = Q
    else:
        ef = _lift_collapse(phi, Q, stats)
    report = LiftReport(
        n=Q.n,
        formula_size=phi.size,
        base_rows=len(Q.rows),
        ef_rows=len(ef.rows),
        ef_ydim=ef.ydim,
        and_count=_count_kind(phi, fm.Kind.AND),
        or_count=_count_kind(phi, fm.Kind.OR),
        blocks=stats["blocks"],
        elided_arms=stats["elided_arms"],
        route="ef",
        emptiness=tuple(stats["emptiness"]),
        witnessed=stats["witnessed"],
    )
    return ef, report


def iterate_lift(phi: fm.Formula, Q: ExtendedFormulation, k: int,
                 with_reports: bool = False):
    """k-fold lift phi(phi(...(Q))); k = 0 returns Q unchanged.

    When the base is an x-space formulation in at most hull.HULL_LIMIT variables,
    rounds 1..k-1 are computed as exact facet lists by vertex enumeration
    and only the final round is built as an extended formulation; this keeps
    the row count of round k proportional to the facet count of round k-1
    instead of growing geometrically.  With with_reports=True the result is
    (formulation, reports), one report per computed round; the loop stops
    early if a round comes out empty.
    """
    if k < 0:
        raise ValueError("round count must be nonnegative")
    if not phi.is_reduced():
        raise ValueError("formula must be reduced before lifting")
    if phi.n != Q.n:
        raise ValueError(f"dimension mismatch: formula {phi.n}, relaxation {Q.n}")
    reports = []
    n = Q.n
    ef = Q
    if k > 1 and Q.is_hrep and not Q.empty_marker and n <= hull.HULL_LIMIT:
        cur = Q.xspace_rows()
        for F in itertools.islice(hull._rounds(phi, cur), k - 1):
            if F is None:
                ef = empty_formulation(n)
                reports.append(_hull_report(phi, len(cur), len(ef.rows), n))
                break
            new = F.rows()
            reports.append(_hull_report(phi, len(cur), len(new), n))
            cur = new
        else:
            ef = from_hrep(n, cur)
        k = 1  # only the final round is an explicit construction
    for _ in range(k):
        if ef.empty_marker:
            break
        ef, rep = lift(phi, ef)
        reports.append(rep)
    return (ef, reports) if with_reports else ef


def _hull_report(phi, base_rows, out_rows, n):
    return LiftReport(
        n=n,
        formula_size=phi.size,
        base_rows=base_rows,
        ef_rows=out_rows,
        ef_ydim=n,
        and_count=_count_kind(phi, fm.Kind.AND),
        or_count=_count_kind(phi, fm.Kind.OR),
        blocks=0,
        elided_arms=0,
        route="hull",
    )


# ---------------------------------------------------------------------------
# text format


def _fmt(v, l=1) -> str:
    """The exact rational v/l as text: `p`, or `p/q` in lowest terms."""
    return str(v) if l == 1 and type(v) is int else str(Fraction(v, l))


def _parse_frac(tok: str, where: str) -> Fraction:
    """tok read as `Fraction` reads a string, but with a decimal exponent of
    at most the int string limit in absolute value, so that a short literal
    cannot build a huge int."""
    try:
        if "e" in tok or "E" in tok:
            exp = int(tok.lower().partition("e")[2])
            if abs(exp) > (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits):
                raise ValueError(tok)
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: bad rational {tok!r}") from exc


def _coeffs(pairs, width, l=1) -> str:
    """A sparse expression over l as `width` dense entries; only nonzeros are formatted."""
    out = ["0"] * width
    for j, c in pairs:
        out[j] = _fmt(c, l)
    return " ".join(out)


def _write(n, ydim, rows, proj) -> str:
    """The text of int rows and rational projection; ydim 0 writes dense
    x-space `ineq` rows, ydim d sparse `row` lines of column:value pairs."""
    lines = ["ef", f"xvars {n}", f"yvars {ydim}"]
    if ydim:
        lines.extend("row" + "".join([f" {j}:{_fmt(c, l)}" for j, c in a]) + " >= " + _fmt(b, l)
                     for a, b, l in rows)
    else:
        lines.extend("ineq " + _coeffs(a, n, l) + " >= " + _fmt(b, l) for a, b, l in rows)
    lines.extend(f"proj {i} {_fmt(off)} " + _coeffs(pairs, ydim)
                 for i, (pairs, off) in enumerate(proj, start=1))
    return "\n".join(lines) + "\n"


def to_text(Q: ExtendedFormulation) -> str:
    """Serialize a formulation.

    x-space formulations (identity projection) are written with `yvars 0`
    and one dense `ineq c1..cn >= b` line per row; general ones write
    `yvars d`, one `row j:c ... >= b` line per row that lists its nonzeros
    by increasing 0-based column j, one `proj i offset c1..cd` line per x
    variable (i is 1-based), then one `wit bits j1 j2 ...` line per entry of
    `witnesses`: the 0/1 point as n bits and the 0-based indices where its y
    is 1.  All numbers are exact rationals p or p/q.
    """
    if Q.is_hrep:
        return _write(Q.n, 0, Q.rows, ())
    text = _write(Q.n, Q.ydim, Q.rows, Q.proj)
    wits = [" ".join(["wit " + "".join(map(str, p)),
                      *map(str, itertools.compress(itertools.count(), y))]) + "\n"
            for p, y in Q.witnesses]
    return text + "".join(wits)


def _value(tok, where, memo) -> tuple:
    """The (numerator, denominator) of a token in lowest terms, parsed once per
    file: `memo` maps each token already read to its pair."""
    v = memo.get(tok)
    if v is None:
        f = _parse_frac(tok, where)
        v = memo[tok] = (f.numerator, f.denominator)
    return v


def _sparse(toks, memo) -> tuple:
    """Nonzero (index, Fraction) pairs of `proj` coefficient tokens."""
    pairs = ((j, _value(tok, "proj", memo)) for j, tok in enumerate(toks) if tok != "0")
    return tuple((j, Fraction(c, d)) for j, (c, d) in pairs if c)


def _int_row(pairs, rhs, where, memo) -> tuple:
    """The int row (a, b, l) of (column, token) pairs and a right-hand side
    token, the row `lpsolve._int_rows` makes of its rationals; pairs whose
    token spells zero are dropped."""
    # a memo hit skips the call; a hit is a (numerator, denominator) pair, never falsy
    vals = [(j, memo.get(tok) or _value(tok, where, memo)) for j, tok in pairs]
    b, bd = memo.get(rhs) or _value(rhs, where, memo)
    l = lcm(bd, *[d for _, (_, d) in vals])
    return tuple([(j, c * (l // d)) for j, (c, d) in vals if c]), b * (l // bd), l


def _row_pairs(toks, d):
    """The (column, token) pairs of a `row` line's `j:c` tokens, columns
    strictly increasing in 0..d-1."""
    pairs = []
    last = -1
    for t in toks:
        col, sep, tok = t.partition(":")
        try:
            j = int(col)
        except ValueError:
            j = -1
        if not (sep and last < j < d):
            raise ValueError(f"bad row pair {t!r}: need column:value, "
                             f"columns increasing in 0..{d - 1}")
        pairs.append((j, tok))
        last = j
    return pairs


def from_text(text: str, check=None) -> ExtendedFormulation:
    """Parse the `to_text` format.

    Each `row` or `ineq` line is read straight into its int row.  `yvars 0`
    input is routed through the `from_hrep` construction, so the unit-box
    rows are present afterwards no matter what the file listed; a single
    all-zero row with positive right side is read back as the empty marker.
    The `wit` lines of a `yvars d` file become its point map; they are kept
    as read, neither evaluated nor projected.  Lines may carry `#` comments.
    `check`, when given, is called with the header's variable count before
    any row is read, so a caller can refuse a stated size before it costs.
    """
    n, d, rows, proj, wits = _parse_text(text, check)
    if d == 0:
        if len(rows) == 1 and not rows[0][0] and rows[0][1] > 0:
            return empty_formulation(n)
        return _boxed(n, rows)
    return ExtendedFormulation(n, d, rows, proj,
                               point_map=_table_map(wits, d) if wits else None)


def _table_map(table, d):
    """Point map of a file's `wit` lines: table maps a 0/1 point to the indices
    where its y is 1; an unlisted point maps to None."""
    def point_map(p):
        ones = table.get(tuple(p))
        if ones is None:
            return None
        y = [0] * d
        for j in ones:
            y[j] = 1
        return tuple(y)

    return point_map


def _parse_text(text: str, check=None) -> tuple:
    """The fields of a `to_text` file exactly as listed: (n, d, rows, proj, wits).

    Rows are int rows (a, b, l) in file order and proj is ordered by x
    index (empty when d is 0); wits maps each `wit` line's 0/1 point to its
    tuple of indices.  Nothing is added or dropped.  Malformed input raises
    ValueError.
    """
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines or lines[0] != "ef":
        raise ValueError("expected header line 'ef'")
    if len(lines) < 3 or not lines[1].startswith("xvars ") or not lines[2].startswith("yvars "):
        raise ValueError("expected 'xvars <n>' then 'yvars <d>'")
    try:
        n = int(lines[1].split()[1])
        d = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError("bad xvars/yvars line") from exc
    if n < 1 or d < 0:
        raise ValueError("variable counts out of range")
    if check is not None:
        check(n)

    width = n if d == 0 else d
    memo = {}
    rows = []
    proj = {}
    wits = {}
    for line in lines[3:]:
        toks = line.split()
        if toks[0] == "row":
            if d == 0:
                raise ValueError("row line in an x-space formulation")
            if len(toks) < 3 or toks[-2] != ">=":
                raise ValueError(f"bad row line: {line!r}")
            rows.append(_int_row(_row_pairs(toks[1:-2], d), toks[-1], "row", memo))
        elif toks[0] == "ineq":
            if len(toks) != width + 3 or toks[-2] != ">=":
                raise ValueError(f"bad ineq line: {line!r}")
            rows.append(_int_row([(j, t) for j, t in enumerate(toks[1:-2]) if t != "0"],
                                 toks[-1], "ineq", memo))
        elif toks[0] == "proj":
            if d == 0:
                raise ValueError("proj line in an x-space formulation")
            if len(toks) != d + 3:
                raise ValueError(f"bad proj line: {line!r}")
            try:
                i = int(toks[1])
            except ValueError as exc:
                raise ValueError(f"bad proj index {toks[1]!r}") from exc
            if not 1 <= i <= n or i in proj:
                raise ValueError(f"bad or repeated proj index {i}")
            off = _parse_frac(toks[2], "proj")
            proj[i] = (_sparse(toks[3:], memo), off)
        elif toks[0] == "wit":
            p, ones = _wit(toks, n, d, line)
            if p in wits:
                raise ValueError(f"repeated wit point {toks[1]}")
            wits[p] = ones
        else:
            raise ValueError(f"unknown line: {line!r}")

    if d > 0 and sorted(proj) != list(range(1, n + 1)):
        raise ValueError("need exactly one proj line per x variable")
    return n, d, tuple(rows), tuple(proj[i] for i in sorted(proj)), wits


def _wit(toks, n, d, line) -> tuple:
    """The 0/1 point and the y indices of one `wit` line."""
    if d == 0:
        raise ValueError("wit line in an x-space formulation")
    bits = toks[1] if len(toks) > 1 else ""
    if len(bits) != n or not set(bits) <= {"0", "1"}:
        raise ValueError(f"wit point must be {n} bits 0/1: {line!r}")
    try:
        ones = tuple(map(int, toks[2:]))
    except ValueError as exc:
        raise ValueError(f"bad wit index: {line!r}") from exc
    if ones and not 0 <= min(ones) <= max(ones) < d:
        raise ValueError(f"wit index outside 0..{d - 1}: {line!r}")
    return tuple(map(int, bits)), ones
