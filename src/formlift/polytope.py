"""Lifted relaxations of 0/1 sets as explicit extended formulations.

A formulation holds inequality rows over lifted variables y together with an
affine projection x = T y + t.  Boolean formulas act on a relaxation inside
the unit box: a literal restricts to the face x_i = 0 or x_i = 1, an AND
of literals to one face block that fixes them all, a conjunction of k arms
intersects their lifted sets, and a disjunction takes the convex hull of
the union by the standard disjunctive construction.  All data is exact
rational.

A disjunction of k arms is one system over y1 | y2 w2 | ... | yk wk, whose
rows are each arm's A_i y_i >= (w_(i+1) - w_i) b_i with w_1 = 0 and
w_(k+1) = 1, and no bounds on the weights: when the rows prove the unit
box, feasibility of {y : A y >= s*b} already forces s >= 0, so the arms'
blocks order 0 <= w_2 <= ... <= w_k <= 1.  `lift` and `iterate_lift` make
sure of it by clamping their base to the box (`_clamped`); hand-built arms
of `balas_union` must have the same property.

Every formulation these constructors build in memory also carries the point
map of its own construction: for a 0/1 point p it returns the lifted y that
the construction assigns to p, or None when p is not in the set; a box
keeps y = p when its rows hold at p, and `_face_map`, `_meet_map`,
`_union_map` and `_cut_map` give the other rules.  Evaluating the rows and
the projection at that y, on ints (`lpsolve._lifts`), certifies membership
and nonemptiness without an LP; a y that fails the rows or projects
elsewhere decides nothing.

They also carry the dual map of their construction: for an x-space
inequality a·x >= beta it returns multipliers u >= 0 on the rows, as a dict
from row index to multiplier (rows not listed weigh 0), with u·A = a·T and
u·b = beta - a·t exactly, where x = T y + t is the projection; or None.
Each call returns a new dict, which the composing map may extend.  Such a
u proves the inequality valid (Balas's disjunctive duality); `_box_dual`,
`_face_dual`, `_meet_dual`, `_union_dual` and `_cut_dual` give each
construction's rule, and `_stated` the rule that a stated row proves itself.
A u is a proposal, checked on the rows by `lpsolve` before it decides
anything.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from . import formula as fm
from . import hull, lpsolve
from .lpsolve import _dense_row, _int_rows, _neg, _pairs, _rational

BOX_LIMIT = 2000

# A linear expression over lifted variables: ((index, coef), ...) sorted by
# index with nonzero coefficients.  A rational row (expr, rhs) means
# expr·y >= rhs; an int row (a, b, l) means (a/l)·y >= b/l as a row and
# x_i = (a·y + b)/l as the projection of coordinate i.


def _shift(pairs, by, k=1) -> tuple:
    """The pairs moved `by` columns on, their values times k."""
    return tuple((j + by, c * k) for j, c in pairs)


@dataclass(frozen=True)
class ExtendedFormulation:
    """Polyhedron {x : exists y, rows(y), x = proj(y)} in exact rationals.

    `rows` are int rows (a, b, l) over y, each standing for (a/l)·y >= b/l:
    a holds (column, nonzero int) pairs sorted by column, b is an int and l
    the least common denominator of the row, so equal rational rows are
    equal int rows (see `lpsolve._int_rows`); each constructor builds them
    from its inputs' int rows.  `proj` holds one int row (a, b, l) in the
    same canonical form per x coordinate, standing for x_i = (a·y + b)/l.
    `empty_marker` flags the canonical empty formulation, which carries the
    single unsatisfiable row 0 >= 1.
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
        return self.ydim == self.n and self.proj == _identity_proj(self.n)

    @cached_property
    def witnesses(self) -> tuple:
        """(p, y) for each 0/1 point p, in lexicographic order, that the point
        map lifts to some y; empty without a map or above hull.HULL_LIMIT
        variables.  A y is a proposal: callers check it before trusting it."""
        if self.point_map is None or self.n > hull.HULL_LIMIT:
            return ()
        ys = ((p, self.point_map(p)) for p in itertools.product((0, 1), repeat=self.n))
        return tuple((p, y) for p, y in ys if y is not None)

    def xspace_rows(self) -> list:
        """Rows as dense `Fraction` x-space constraints; only valid when is_hrep."""
        if not self.is_hrep:
            raise ValueError("formulation has genuine lifted variables; rows are not in x-space")
        return [_dense_row(row, self.n) for row in self.rows]


def _identity_proj(n) -> tuple:
    return tuple((((i, 1),), 0, 1) for i in range(n))


def empty_formulation(n: int) -> ExtendedFormulation:
    """The canonical empty relaxation: one row 0 >= 1, identity projection."""
    return ExtendedFormulation(n, n, (((), 1, 1),), _identity_proj(n), True)


def cube(n: int) -> ExtendedFormulation:
    """The unit box [0,1]^n as an x-space formulation with 2n rows."""
    return from_hrep(n, [])


def from_hrep(n: int, rows) -> ExtendedFormulation:
    """x-space formulation from dense rows a·x >= rhs, with the unit-box rows
    appended (then exact duplicates dropped)."""
    if n < 1:
        raise ValueError("need at least one variable")
    _check_box(n)
    return _boxed(n, with_xspace_rows(ExtendedFormulation(n, n, (), _identity_proj(n)), rows).rows)


def _check_box(n):
    """Refuse a unit box over more than BOX_LIMIT variables."""
    if n > BOX_LIMIT:
        raise ValueError(f"dimension {n} exceeds box limit {BOX_LIMIT}")


def _boxed(n, rows) -> ExtendedFormulation:
    """x-space formulation from int rows, with the unit-box rows appended;
    refused above BOX_LIMIT variables before any row is built."""
    _check_box(n)
    rows = tuple(dict.fromkeys((*rows, *hull._box_rows(n))))
    return ExtendedFormulation(n, n, rows, _identity_proj(n),
                               point_map=lambda p: tuple(p) if lpsolve._holds(rows, p) else None,
                               dual_map=lambda a, beta: _box_dual(rows, a, beta))


def _clamped(Q) -> ExtendedFormulation:
    """Q within the unit box, refused above BOX_LIMIT variables first.  An
    x-space Q lists the box rows or gets them as `_boxed` appends them; a
    lifted Q keeps each box row that its dual map proves and gets the
    others through its projection: all 2n for a file or a hand-built Q,
    none for a Q clamped before (`_cut_dual`) or a lift of one."""
    # Why proofs are enough.  Proved box rows put the projection inside the
    # box.  Proofs u, v of a coordinate's bounds x_i >= L and -x_i >= -U
    # (an appended box row proves itself) add up to 0·y >= L - U over Q's
    # rows; for L < U that is a Farkas certificate that A y >= s·b has no
    # solution with s < 0, so every union weight over Q stays nonnegative.
    # If every coordinate is pinned, L = U, the projection is a single point,
    # and every union over Q projects to that point whatever its weights.
    _check_box(Q.n)
    if Q.empty_marker:
        return Q
    box = hull._box_rows(Q.n)
    if Q.is_hrep:
        return Q if set(box) <= set(Q.rows) else _boxed(Q.n, Q.rows)
    missing = [(a, b) for a, b in (_dense_row(row, Q.n) for row in box)
               if not lpsolve.proves_valid(Q, a, b)]
    return with_xspace_rows(Q, missing) if missing else Q


def _box_dual(rows, a, beta):
    """Multipliers proving a·x >= beta on boxed x-space rows, or None.

    When the box alone implies it (the sum of the negative a_i is at least
    beta), a_i goes on x_i >= 0 for a_i > 0 and -a_i on -x_i >= -1 for
    a_i < 0; the slack e goes on both box rows of x_1, which add 0 >= -e,
    so that u·b is exactly beta.  Otherwise a row equal to the inequality
    proves itself (`_stated`).
    """
    low = sum(v for v in a if v < 0)
    if low >= beta:
        box, u = hull._box_rows(len(a)), {}
        for i, v in enumerate(a):
            if v:
                u[rows.index(box[2 * i + (v < 0)])] = abs(v)
        if low > beta:
            for row in box[:2]:
                k = rows.index(row)
                u[k] = u.get(k, 0) + low - beta
        return u
    return _stated(rows, _int_rows(((_pairs(a), beta),))[0])


def _stated(rows, row):
    """Multiplier 1 on `row` when `rows` state it: a stated row proves itself."""
    return {rows.index(row): 1} if row in rows else None


def _face_map(base, fixed):
    """Point map of a face block: the base's y where p has every fixed value."""
    if base is None:
        return None
    get = operator.itemgetter(*[i for i, _, _ in fixed])
    want = get({i: value for i, value, _ in fixed})  # shaped as get(p) is
    return lambda p: base(p) if get(p) == want else None


def _meet_map(maps):
    """Point map of an intersection: every arm's y, concatenated."""
    if None in maps:
        return None

    def point_map(p):
        ys = []
        for m in maps:
            ys.append(m(p))
            if ys[-1] is None:
                return None
        return tuple(itertools.chain.from_iterable(ys))

    return point_map


def _union_map(maps, starts, weights, dim):
    """Point map of a disjunctive union: p in the first arm that lifts it, at weight 1."""
    if None in maps:
        return None

    def point_map(p):
        for i, m in enumerate(maps):
            y = m(p)
            if y is not None:
                out = [0] * dim
                out[starts[i]:starts[i] + len(y)] = y
                for j in weights[i:]:
                    out[j] = 1
                return tuple(out)
        return None

    return point_map


def _face_dual(base, fixed):
    """Dual map of a face block: the base is asked once without every term
    a_i x_i that its face pays for (a_i·value > min(a_i, 0)), putting |a_i|
    on the face's first row (a_i > 0) or second, and once for the inequality
    itself when that fails or no face pays."""
    if base is None:
        return None

    def dual_map(a, beta):
        rest, low, paid = list(a), beta, {}
        for i, value, row in fixed:
            ai = a[i]
            if ai * value > (ai if ai < 0 else 0):
                rest[i], low = 0, low - ai * value
                paid[row + (ai < 0)] = abs(ai)
        u = base(tuple(rest), low) if paid else None
        if u is None:
            return base(a, beta)
        u.update(paid)
        return u

    return dual_map


def _meet_dual(duals, offsets, ties):
    """Dual map of an intersection: the multipliers of the first arm that
    proves the inequality, shifted past the offsets[j] rows before arm j,
    plus for an arm after the first |a_i| on its tie row ties[j] + 2i
    (a_i > 0) or ties[j] + 2i + 1."""
    if None in duals:
        return None

    def dual_map(a, beta):
        for j, dual in enumerate(duals):
            u = dual(a, beta)
            if u is None:
                continue
            if j:
                u = {k + offsets[j]: v for k, v in u.items()}
                for i, ai in enumerate(a):
                    if ai:
                        u[ties[j] + 2 * i + (ai < 0)] = abs(ai)
            return u
        return None

    return dual_map


def _union_dual(duals, offsets):
    """Dual map of a disjunctive union: every arm's multipliers, arm i's
    shifted past the offsets[i] rows before it; exact, so the weights cancel."""
    if None in duals:
        return None

    def dual_map(a, beta):
        out = {}
        for dual, m in zip(duals, offsets):
            u = dual(a, beta)
            if u is None:
                return None
            out.update((k + m, v) for k, v in u.items())
        return out

    return dual_map


def _cut_map(base, rows):
    """Point map of appended int rows: the base's y where it satisfies them."""
    if base is None:
        return None

    def point_map(p):
        y = base(p)
        return y if y is not None and lpsolve._holds(rows, y) else None

    return point_map


def _cut_dual(Q, rows):
    """Dual map of rows appended to Q, all `rows`: Q's, else `_stated`."""
    def dual_map(a, beta):
        u = None if Q.dual_map is None else Q.dual_map(a, beta)
        return u if u is not None else _stated(rows, _y_row(Q, a, beta))

    return dual_map


def face_restrict(Q: ExtendedFormulation, fixings) -> ExtendedFormulation:
    """Restrict to the face x_var = value (var 1-based, value 0 or 1) of
    each item of `fixings`, as `formula.fixings` gives them, in one pass:
    a row pair per variable, appended in increasing variable order."""
    fixed, new = [], []  # (index, value, first row) of each face; its rows
    for var in sorted(fixings):
        if not 1 <= var <= Q.n:
            raise ValueError(f"variable x{var} out of range 1..{Q.n}")
        value, (a, b, l) = fixings[var], Q.proj[var - 1]
        fixed.append((var - 1, value, len(Q.rows) + len(new)))
        # (a/l)·y = value - b/l as a row pair; canonical, as the projection is
        new += ((a, value * l - b, l), (_neg(a), b - value * l, l))
    if Q.empty_marker or not fixed:
        return Q
    return ExtendedFormulation(Q.n, Q.ydim, Q.rows + tuple(new), Q.proj,
                               point_map=_face_map(Q.point_map, fixed),
                               dual_map=_face_dual(Q.dual_map, fixed))


def intersect(*arms: ExtendedFormulation) -> ExtendedFormulation:
    """Formulation of the intersection of k arms over the columns
    y1 | y2 | ... | yk, as a left fold of two-arm intersections lays them
    out: each arm after the first adds its rows, then 2n rows tying its
    projection to the first arm's.  A marker arm gives the marker; a single
    arm is returned as it is.
    """
    if not arms:
        raise ValueError("an intersection needs at least one arm")
    first = arms[0]
    for X in arms:
        if X.n != first.n:
            raise ValueError(f"dimension mismatch: {first.n} vs {X.n}")
    if len(arms) == 1:
        return first
    if any(X.empty_marker for X in arms):
        return empty_formulation(first.n)
    rows, offsets, ties, dim = list(first.rows), [0], [0], first.ydim
    for X in arms[1:]:
        offsets.append(len(rows))
        rows += [(_shift(a, dim), b, l) for a, b, l in X.rows]
        ties.append(len(rows))
        # each tie row, first's x minus X's x >= 0 over l = lcm(la, lb),
        # reduced by its gcd to the canonical form; then its negation
        for (pa, ta, la), (pb, tb, lb) in zip(first.proj, X.proj):
            l = lcm(la, lb)
            ka, kb = l // la, l // lb
            a, b = _shift(pa, 0, ka) + _shift(pb, dim, -kb), tb * kb - ta * ka
            g = gcd(l, b, *dict(a).values()) if l > 1 else 1
            if g > 1:
                a, b, l = tuple((j, c // g) for j, c in a), b // g, l // g
            rows += [(a, b, l), (_neg(a), -b, l)]
        dim += X.ydim
    return ExtendedFormulation(first.n, dim, tuple(rows), first.proj,
                               point_map=_meet_map([X.point_map for X in arms]),
                               dual_map=_meet_dual([X.dual_map for X in arms], offsets, ties))


def balas_union(*arms: ExtendedFormulation) -> ExtendedFormulation:
    """Formulation of the convex hull of the arms' union (see the module
    docstring) over the columns y1 | y2 w2 | ... | yk wk, as a left fold of
    two-arm unions lays them out.  Marker arms are dropped before any rows
    are built; a single arm left is returned as it is.
    """
    if not arms:
        raise ValueError("a union needs at least one arm")
    n = arms[0].n
    for X in arms:
        if X.n != n:
            raise ValueError(f"dimension mismatch: {n} vs {X.n}")
    kept = [X for X in arms if not X.empty_marker]
    if len(kept) <= 1:
        return kept[0] if kept else arms[-1]
    # counting arms from 0, arm i has its y at column starts[i], then for i > 0
    # the column w[i] of W_i, the weight of arms 0..i-1; W_0 = 0 and W_k = 1
    *starts, dim = itertools.accumulate([X.ydim + (i > 0) for i, X in enumerate(kept)], initial=0)
    w = [None] + [s + X.ydim for s, X in zip(starts[1:], kept[1:])] + [None]
    # arm i's rows are scaled by W_(i+1) - W_i: the same rationals, so the same l
    rows = []
    for X, s, lo, hi in zip(kept, starts, w, w[1:]):
        for a, b, l in X.rows:
            a = _shift(a, s) if s else a
            if b and lo is not None:
                a += ((lo, b),)
            if b and hi is not None:
                a += ((hi, -b),)
            rows.append((a, b if hi is None else 0, l))
    # each x_i over l, the lcm of the arms' l; canonical without a gcd, since for
    # each prime power of l the last arm whose l it divides keeps an entry, a
    # weight or the constant that it does not divide
    proj = []
    for i in range(n):
        l = lcm(*[X.proj[i][2] for X in kept])
        p, t = [], None
        for X, s, lo in zip(kept, starts, w):
            a, b, k = X.proj[i]
            b *= l // k
            p += _shift(a, s, l // k) + (((lo, t - b),) if lo is not None and t != b else ())
            t = b
        proj.append((tuple(p), t, l))
    offsets = list(itertools.accumulate([len(X.rows) for X in kept[:-1]], initial=0))
    return ExtendedFormulation(n, dim, tuple(rows), tuple(proj),
                               point_map=_union_map([X.point_map for X in kept],
                                                    starts, w[1:-1], dim),
                               dual_map=_union_dual([X.dual_map for X in kept], offsets))


def with_xspace_rows(Q: ExtendedFormulation, rows) -> ExtendedFormulation:
    """Append x-space constraints a·x >= rhs, translated through the projection.

    A translated row that Q already has is not appended again, so Q comes
    back as it is when it has them all.  The point map is kept for the
    points whose lifted y satisfies the new rows; the dual map asks Q's
    first, since Q's rows come first, and then lets any stated row prove
    itself, so a Q clamped to the box proves all 2n box rows.
    """
    if Q.empty_marker:
        return Q
    extra = []
    for a, rhs in rows:
        a = lpsolve._ints(a)
        if len(a) != Q.n:
            raise ValueError(f"row has {len(a)} coefficients, expected {Q.n}")
        extra.append(_y_row(Q, a, rhs))
    have = set(Q.rows)
    extra = tuple(row for row in extra if row not in have)
    if not extra:
        return Q
    rows = Q.rows + extra
    return ExtendedFormulation(Q.n, Q.ydim, rows, Q.proj,
                               point_map=_cut_map(Q.point_map, extra),
                               dual_map=_cut_dual(Q, rows))


def _y_row(Q, a, rhs):
    """The int row over Q's y of a·x >= rhs, through the projection."""
    expr, off = lpsolve._y_objective(Q, a)
    return _int_rows(((expr, _rational(rhs) - off),))[0]


# ---------------------------------------------------------------------------
# lifting a formula over a relaxation


@dataclass(frozen=True)
class LiftReport:
    """Size accounting for one lift.

    `blocks` counts conjunction blocks applied as batched face restrictions,
    `elided_arms` counts disjunction arms dropped because they were proved
    empty, and `emptiness` records each feasibility decision in construction
    order as "<site>:<verdict>".  Of those decisions, `witnessed` were made by
    a 0/1 point p whose lifted y satisfies every row and projects to p, and
    the rest, `lp_decided`, by an exact LP; every "empty" verdict is an
    LP's.  `route` is "ef" for the extended-formulation construction and
    "hull" for rounds compacted through vertex enumeration.  The row bound
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
    blocks: int = 0
    elided_arms: int = 0
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


def _report(phi, base_rows, ef_rows, ef_ydim, route, **stats) -> LiftReport:
    """The LiftReport of one round of phi by `route`; `stats` are the ef
    route's counts, which the hull route leaves at zero."""
    return LiftReport(phi.n, phi.size, base_rows, ef_rows, ef_ydim,
                      _count_kind(phi, fm.Kind.AND), _count_kind(phi, fm.Kind.OR),
                      route=route, **stats)


def _count_kind(f: fm.Formula, kind: fm.Kind) -> int:
    """Binary `kind` operators in f: a chain of k operands counts k - 1."""
    own = len(f.children) - 1 if f.kind is kind else 0
    return own + sum(_count_kind(c, kind) for c in f.children)


def _restrict_block(Q, fixings, stats):
    ef = face_restrict(Q, fixings)
    stats["blocks"] += 1
    return empty_formulation(Q.n) if _decide_empty([ef], _witness([ef]), "block", stats) else ef


def _witness(arms, start=0):
    """Resume the lexicographic scan of 0/1 points for a witness of the
    intersection of `arms`: a point p that every arm's point map lifts to a
    y of the arm over p (`lpsolve._lifts`), so that the tie rows hold too.
    The scan starts at the `start`-th point, which every arm but the last
    lifts (the default starts a single arm), and returns the index of the
    first witness, where the scan for one more arm resumes, since a witness
    of k arms is one of their first k-1; or None, also without a map or
    above hull.HULL_LIMIT.
    """
    n = arms[0].n
    first = len(arms) - 1
    if arms[first].point_map is None or n > hull.HULL_LIMIT:
        return None
    for i, p in enumerate(itertools.islice(itertools.product((0, 1), repeat=n), start, None),
                          start):
        for Q in arms[first:]:
            y = Q.point_map(p)
            if y is None or not lpsolve._lifts(Q, y, 1, p):
                break
        else:
            return i
        first = 0
    return None


def _decide_empty(arms, witness, site, stats):
    """Record whether the intersection of `arms` is empty: not when a 0/1
    witness was found, else by an exact LP over it, built only then."""
    if witness is not None:
        stats["witnessed"] += 1
        empty = False
    else:
        empty = lpsolve.is_empty(intersect(*arms))
    stats["emptiness"].append(f"{site}:{'empty' if empty else 'nonempty'}")
    return empty


def _lift_collapse(f, Q, stats):
    if f.kind is fm.Kind.OR:
        # balas_union drops empty arms; elided counts them as a two-arm fold would
        arms = [_lift_collapse(arm, Q, stats) for arm in f.children]
        stats["elided_arms"] += len(arms) - max(sum(not a.empty_marker for a in arms), 1)
        return balas_union(*arms)
    split = fm.fixings(f)
    if split is None:
        return empty_formulation(Q.n)
    fixings, rest = split
    if not rest:
        return _restrict_block(Q, fixings, stats)
    # conjunction with at least one disjunction below: lift the OR conjuncts,
    # decide each prefix of their intersection, then batch the fixings on top
    arms, at = [], 0
    for conjunct in rest:
        X = _lift_collapse(conjunct, Q, stats)
        if X.empty_marker:
            return X
        arms.append(X)
        at = _witness(arms, at) if at is not None else None
        if len(arms) > 1 and _decide_empty(arms, at, "intersect", stats):
            return empty_formulation(Q.n)
    ef = intersect(*arms)
    if fixings:
        ef = _restrict_block(ef, fixings, stats)
    return ef


def lift(phi: fm.Formula, Q: ExtendedFormulation):
    """Lifted relaxation phi(Q) plus a LiftReport.

    Requires a reduced formula; Q is clamped to the unit box (`_clamped`)
    first.  Every returned non-marker formulation is nonempty: emptiness is
    decided after each restriction block and each conjunct added to an
    intersection, first by a 0/1 witness from the point maps and otherwise
    by an exact feasibility solve, and empty disjunction arms are dropped
    before the union is formed.
    """
    hull._check_lift(phi, Q)
    Q = _clamped(Q)
    stats = {"blocks": 0, "elided_arms": 0, "emptiness": [], "witnessed": 0}
    ef = Q if Q.empty_marker else _lift_collapse(phi, Q, stats)
    stats["emptiness"] = tuple(stats["emptiness"])
    return ef, _report(phi, len(Q.rows), len(ef.rows), ef.ydim, "ef", **stats)


def iterate_lift(phi: fm.Formula, Q: ExtendedFormulation, k: int):
    """(phi(phi(...(Q))), reports) for k rounds, one LiftReport per round
    computed; Q is clamped to the unit box first, and k = 0 returns it.

    When the base is an x-space formulation in at most hull.HULL_LIMIT variables,
    rounds 1..k-1 are computed as exact facet lists by vertex enumeration
    and only the final round is built as an extended formulation; this keeps
    the row count of round k proportional to the facet count of round k-1
    instead of growing geometrically.  Each explicit round is one `lift`,
    whose clamp of a clamped base or of a lift of one adds no row; the loop
    stops early if a round comes out empty.
    """
    if k < 0:
        raise ValueError("round count must be nonnegative")
    hull._check_lift(phi, Q)
    reports = []
    n = Q.n
    ef = Q = _clamped(Q)
    if k > 1 and Q.is_hrep and not Q.empty_marker and n <= hull.HULL_LIMIT:
        cur = hull._of_int_rows(n, Q.rows)
        for F in itertools.islice(hull._rounds(phi, cur), k - 1):
            if F is None:
                ef = empty_formulation(n)
                reports.append(_report(phi, len(cur.irows()), len(ef.rows), n, "hull"))
                break
            reports.append(_report(phi, len(cur.irows()), len(F.irows()), n, "hull"))
            cur = F
        else:
            ef = _boxed(n, cur.irows())
        k = 1  # only the final round is an explicit construction
    for _ in range(k):
        if ef.empty_marker:
            break
        ef, rep = lift(phi, ef)
        reports.append(rep)
    return ef, reports


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
    """The text of int rows and projection; ydim 0 writes dense
    x-space `ineq` rows, ydim d sparse `row` lines of column:value pairs."""
    lines = ["ef", f"xvars {n}", f"yvars {ydim}"]
    if ydim:
        lines.extend("row" + "".join([f" {j}:{_fmt(c, l)}" for j, c in a]) + " >= " + _fmt(b, l)
                     for a, b, l in rows)
    else:
        lines.extend("ineq " + _coeffs(a, n, l) + " >= " + _fmt(b, l) for a, b, l in rows)
    lines.extend(f"proj {i} {_fmt(b, l)} " + _coeffs(a, ydim, l)
                 for i, (a, b, l) in enumerate(proj, start=1))
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


class _Reader:
    """The int rows of one file, each token read once.

    `values` maps every number token read, the c of a `j:c` token included,
    to its (numerator, denominator) in lowest terms.  `pairs` maps every
    `j:c` token read to its (column, numerator) pair, the column checked
    against the width, and `odd` those of them whose value is zero or has a
    denominator other than 1 to that denominator.  So a row of whole
    nonzero tokens is its tuple of pairs.
    """

    def __init__(self, width):
        self.width = width
        self.values, self.pairs, self.odd = {}, {}, {}

    def _bad(self, tok):
        return ValueError(f"bad row pair {tok!r}: need column:value, "
                          f"columns increasing in 0..{self.width - 1}")

    def value(self, tok, where) -> tuple:
        """The (numerator, denominator) of a number token."""
        v = self.values.get(tok)
        if v is None:
            f = _parse_frac(tok, where)
            v = self.values[tok] = (f.numerator, f.denominator)
        return v

    def _pair(self, tok, where) -> tuple:
        """The (column, numerator) pair of a `j:c` token not read before."""
        col, sep, val = tok.partition(":")
        try:
            j = int(col)
        except ValueError:
            j = -1
        if not (sep and 0 <= j < self.width):
            raise self._bad(tok)
        c, den = self.values.get(val) or self.value(val, where)
        if den != 1 or not c:
            self.odd[tok] = den
        v = self.pairs[tok] = (j, c)
        return v

    def row(self, toks, rhs, where) -> tuple:
        """The int row (a, b, l) of the `j:c` tokens toks, columns strictly
        increasing, over the right-hand side token rhs: the row
        `lpsolve._int_rows` makes of their rationals, zeros dropped."""
        pairs, odd = self.pairs, self.odd
        # a memo hit skips the call; a hit is a pair, never falsy
        vals = [pairs.get(t) or self._pair(t, where) for t in toks]
        last = -1
        for j, _ in vals:
            if j <= last:  # name the first token out of order
                raise self._bad(toks[next(k for k in range(1, len(vals))
                                          if vals[k][0] <= vals[k - 1][0])])
            last = j
        b, bd = self.values.get(rhs) or self.value(rhs, where)
        if bd == 1 and not (odd and any(t in odd for t in toks)):
            return tuple(vals), b, 1
        dens = [odd.get(t, 1) for t in toks]
        l = lcm(bd, *dens)
        a = tuple([(j, c * (l // den)) for (j, c), den in zip(vals, dens) if c])
        return a, b * (l // bd), l

    def dense(self, toks, rhs, where) -> tuple:
        """The int row of a dense line's value tokens, read as the `j:c`
        tokens of the entries not written `0`."""
        return self.row([f"{j}:{t}" for j, t in enumerate(toks) if t != "0"], rhs, where)


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

    Rows are int rows (a, b, l) in file order and proj holds the int row of
    each x coordinate in x order (empty when d is 0); wits maps each `wit`
    line's 0/1 point to its tuple of indices.  Nothing is added or dropped.
    Malformed input raises ValueError.
    """
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    lines = [body for body in map(str.strip, raws) if body]
    if not lines or lines[0] != "ef":
        raise ValueError("expected header line 'ef'")
    head = [line.split() for line in lines[1:3]]
    if len(head) < 2 or head[0][0] != "xvars" or head[1][0] != "yvars":
        raise ValueError("expected 'xvars <n>' then 'yvars <d>'")
    try:
        (_, n), (_, d) = head
        n, d = int(n), int(d)
    except ValueError as exc:
        raise ValueError("bad xvars/yvars line") from exc
    if n < 1 or d < 0:
        raise ValueError("variable counts out of range")
    if check is not None:
        check(n)

    read = _Reader(n if d == 0 else d)
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
            rows.append(read.row(toks[1:-2], toks[-1], "row"))
        elif toks[0] == "ineq":
            if len(toks) != read.width + 3 or toks[-2] != ">=":
                raise ValueError(f"bad ineq line: {line!r}")
            rows.append(read.dense(toks[1:-2], toks[-1], "ineq"))
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
            read.value(toks[2], "proj")  # the offset is read first, as it comes first
            proj[i] = read.dense(toks[3:], toks[2], "proj")
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
    if len(bits) != n or bits.strip("01"):
        raise ValueError(f"wit point must be {n} bits 0/1: {line!r}")
    try:
        ones = tuple(map(int, toks[2:]))
    except ValueError as exc:
        raise ValueError(f"bad wit index: {line!r}") from exc
    if ones and not 0 <= min(ones) <= max(ones) < d:
        raise ValueError(f"wit index outside 0..{d - 1}: {line!r}")
    return tuple(map(int, bits)), ones
