"""Pitch and notch of valid 0/1 inequalities, and exact closure oracles.

An inequality a·x >= rhs over 0/1 variables is put in standard form

    sum_{i in pos} c_i x_i + sum_{i in neg} c_i (1 - x_i) >= delta

with pos/neg a partition of the variables, all c_i >= 0 and delta >= 0.
The pitch is the least p such that the p smallest nonzero coefficients
already add up to delta; the notch counts zero coefficients as well, so
pitch <= notch.  A 0/1 set also has a notch: the smallest k such that every
k-dimensional face of the cube contains one of its points.

The closure oracles search, completely within their scope, for a valid
inequality of bounded pitch or notch that a relaxation violates: for each
support (pitch mode, uncomplemented) or complementation pattern (notch
mode), the feasible coefficient vectors with delta normalized to 1 form a
polyhedron whose vertices are enumerated exactly, and each vertex is priced
against the relaxation.

An x-space relaxation R is priced over its vertex list in Python ints.  A
hull round (a FacetList from `hull.lift_hrep`) brings its certified list;
an x-space formulation gets one from `hull.certified_vertices`, checked
from both sides, with an exact LP proving each facet of the list's hull
that no row of R states (a hand-written file's implied equation, say).  A
list that fails the check is an InternalError, never a reason to price
another way.  Only a violation runs an exact LP, over R's formulation,
whose optimum must equal the minimum over the list and supplies the
reported point.  A lifted R is priced with one exact LP per cone vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from . import formula as fm
from . import hull, lpsolve
from . import polytope as pt
from .lpsolve import _rational

PITCH_SEARCH_LIMIT = 8
NOTCH_SEARCH_LIMIT = 6
FACE_LIMIT = 8


@dataclass(frozen=True)
class StandardFormInequality:
    """Standard form with `neg` the complemented (1-based) indices."""

    n: int
    neg: tuple
    coeffs: tuple
    delta: Fraction

    @property
    def support(self) -> tuple:
        return tuple(i for i in range(1, self.n + 1) if self.coeffs[i - 1] != 0)

    def lhs(self, point) -> Fraction:
        ns = set(self.neg)
        total = Fraction(0)
        for i in range(1, self.n + 1):
            v = _rational(point[i - 1])
            total += self.coeffs[i - 1] * ((1 - v) if i in ns else v)
        return total

    def is_valid_on(self, points) -> bool:
        return all(self.lhs(p) >= self.delta for p in points)


def to_standard_form(a, rhs):
    """Rewrite a·x >= rhs in standard form; None when it holds on all of [0,1]^n.

    Complemented indices are exactly those with a_i < 0, so every
    coefficient becomes nonnegative; the right side shifts accordingly.
    A shifted right side below zero means the inequality is trivial.
    """
    a = tuple(_rational(v) for v in a)
    rhs = _rational(rhs)
    neg = tuple(i for i, v in enumerate(a, start=1) if v < 0)
    delta = rhs - sum(a[i - 1] for i in neg)
    if delta < 0:
        return None
    return StandardFormInequality(len(a), neg, tuple(abs(v) for v in a), delta)


def _least_count(coeffs, delta, what) -> int:
    """Least p with the p smallest of `coeffs` summing to delta; 0 when delta <= 0."""
    if delta <= 0:
        return 0
    total = Fraction(0)
    for p, c in enumerate(sorted(coeffs), start=1):
        total += c
        if total >= delta:
            return p
    raise ValueError(f"full-support sum below delta; {what} undefined")


def pitch_of(ineq: StandardFormInequality) -> int:
    """Least p with the p smallest nonzero coefficients summing to delta.

    0 when delta <= 0.  Raises when even the full support sum stays below
    delta: then no 0/1 point satisfies the inequality and the measure is
    undefined.
    """
    return _least_count([c for c in ineq.coeffs if c != 0], ineq.delta, "pitch")


def notch_of(ineq: StandardFormInequality) -> int:
    """Least p with the p smallest coefficients (zeros included) summing to delta."""
    return _least_count(ineq.coeffs, ineq.delta, "notch")


def notch_of_set(S: fm.PointSet01) -> int:
    """Smallest k such that every k-dimensional cube face contains a point of S.

    0 exactly when S is all of {0,1}^n; at most n for nonempty S since the
    cube itself is an n-face.  Enumerates all 3^n faces; S must be nonempty.
    """
    n = S.n
    if n > FACE_LIMIT:
        raise ValueError(f"dimension {n} exceeds face enumeration limit {FACE_LIMIT}")
    if not S.points:
        raise ValueError("the notch of the empty set is undefined")
    pts = set(S.points)
    for k in range(n + 1):
        ok = True
        for free in itertools.combinations(range(n), k):
            fixed = [i for i in range(n) if i not in free]
            for vals in itertools.product((0, 1), repeat=len(fixed)):
                if not any(all(s[i] == v for i, v in zip(fixed, vals)) for s in pts):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k
    raise AssertionError("unreachable: the full cube contains every point of S")


# ---------------------------------------------------------------------------
# closure oracles


@dataclass(frozen=True)
class ClosureQuery:
    """One closure question: does relaxation R violate some valid inequality?

    `mode` is "pitch" (uncomplemented inequalities, every coefficient
    support, smallest supports first) or "notch" (every complementation
    pattern); `level` bounds the measure.  `S` is the 0/1 set the
    inequalities must be valid for and `R` the relaxation to price against,
    a formulation or a FacetList such as a hull round.  Above
    PITCH_SEARCH_LIMIT (pitch) or NOTCH_SEARCH_LIMIT (notch) variables the
    oracle refuses rather than subsample.
    """

    mode: str
    level: int
    S: fm.PointSet01
    R: object


@dataclass(frozen=True)
class Violation:
    """A valid inequality of bounded measure that the relaxation cuts off.

    In standard form with delta = 1: coefficient i is complemented iff i is
    in `neg`.  `point` lies in the relaxation and `value` = lhs(point) < 1.
    """

    n: int
    neg: tuple
    coeffs: tuple
    delta: Fraction
    point: tuple
    value: Fraction
    support: tuple

    def standard(self) -> StandardFormInequality:
        return StandardFormInequality(self.n, self.neg, self.coeffs, self.delta)

    def describe(self) -> str:
        terms = []
        ns = set(self.neg)
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            cs = "" if c == 1 else f"{c}*"
            terms.append(f"{cs}(1-x{i})" if i in ns else f"{cs}x{i}")
        lhs = " + ".join(terms) if terms else "0"
        pt = " ".join(str(v) for v in self.point)
        return f"{lhs} >= {self.delta} violated at ({pt}): lhs = {self.value}"


@dataclass(frozen=True)
class ClosureReport:
    """Aggregate of one oracle run: the outcome plus search statistics."""

    mode: str
    level: int
    violation: Violation | None
    examined: int
    skipped: int
    priced: int

    @property
    def closed(self) -> bool:
        return self.violation is None

    def line(self) -> str:
        out = "none" if self.violation is None else self.violation.describe()
        return (f"closure mode={self.mode} level={self.level} examined={self.examined} "
                f"skipped={self.skipped} priced={self.priced} violation={out}")


def _cone_generators(dim, level, valid_rows):
    """Vertices of {c >= 0 : every level-subset sums >= 1, d·c >= 1 for d in rows}.

    Each vertex C/e comes as the primitive int tuple (C..., e), e > 0, and
    the list is in lexicographic order of the vertices.  Every row has 0/1
    coefficients and right-hand side 0 or 1, so each goes to the double
    description as the homogeneous int row (a, -rhs).  At level 1 every
    c_i >= 1, so each row d·c >= 1 with d != 0 holds and the only vertex is
    all ones; `_price` passes no zero d.
    """
    if level == 1 and all(any(d) for d in valid_rows):
        return [(1,) * (dim + 1)]
    rows = [tuple(int(j == i) for j in range(dim)) + (0,) for i in range(dim)]
    for J in itertools.combinations(range(dim), min(level, dim)):
        rows.append(tuple(int(j in J) for j in range(dim)) + (-1,))
    rows.extend(tuple(d) + (-1,) for d in valid_rows)
    points, _rays, _lineality = hull.vertices_of_rows(rows, dim)
    # over one common denominator L the order of the ints is that of the vertices
    L = lcm(*(g[dim] for g in points))
    return sorted(points, key=lambda g: tuple(v * (L // g[dim]) for v in g[:dim]))


def _checked_vertices(R):
    """The vertex list of an x-space formulation R, checked from both sides.

    For relaxations without a certified list: the cube, a `yvars 0` file,
    one handed to a checker, a FacetList from `hull.facets_of_points`.
    Each int row (a, b, l) goes to `hull.certified_vertices` as the
    primitive homogeneous row (a, -b); the vertices come back as
    homogeneous int points (X, D) for X/D, or None when R is unbounded.
    """
    n = R.n
    rows = []
    for a, b, _ in R.rows:
        h = [0] * n + [-b]
        for j, c in a:
            h[j] = c
        rows.append(hull._reduced(h))
    return hull.certified_vertices(rows, n)


def _vertex_minimum(W, C):
    """(s, D) with s/D the least of C·w/D over the vertices (w, D) in W.

    Each w holds a vertex's standard-form numerators over its denominator
    D: X_i, or D - X_i for a complemented i.  Values compare by
    cross-multiplying, so no `Fraction` is built.
    """
    best, best_D = None, 1
    for w, D in W:
        s = sum(map(mul, C, w))
        if best is None or s * best_D < best * D:
            best, best_D = s, D
    return best, best_D


def _formulation(R):
    """R for an exact LP: a FacetList's rows, in order, clamped to the box."""
    return pt.from_hrep(R.n, R.rows()) if isinstance(R, hull.FacetList) else R


def _check_violation(query, viol, R):
    ineq = viol.standard()
    if not ineq.is_valid_on(query.S.points):
        raise lpsolve.InternalError("closure oracle produced an inequality invalid on S")
    measure = pitch_of(ineq) if query.mode == "pitch" else notch_of(ineq)
    if measure > query.level:
        raise lpsolve.InternalError("closure oracle exceeded the requested measure level")
    if ineq.lhs(viol.point) >= ineq.delta:
        raise lpsolve.InternalError("closure oracle witness does not violate the inequality")
    if not lpsolve.contains_point(R, viol.point):
        raise lpsolve.InternalError("closure oracle witness is outside the relaxation")
    return viol


def closure_violation(query: ClosureQuery):
    """First violated valid inequality within the query's scope, or None.

    The search is complete: if None comes back, no inequality of the given
    mode and level that is valid for S cuts off any point of R.  Normalizing
    delta to 1 loses nothing (delta = 0 inequalities cannot be violated
    inside the cube, positive delta scales away), and for a fixed support
    or pattern the worst violation is attained at a vertex of the
    coefficient polyhedron because the pricing objective is nonnegative on
    its recession directions.  Each such vertex is priced by its least
    value over R: over an x-space R the least value at R's vertices, whose
    list is certified to be all of R (see the module docstring), and over a
    lifted R an exact LP.  Every reported violation comes from an exact
    LP, which must agree with the vertex minimum where there is one, and is
    re-verified exactly before being returned.
    """
    return _search(query)[0]


def verify_closure(query: ClosureQuery) -> ClosureReport:
    """Run the oracle and report the outcome with search statistics."""
    viol, examined, skipped, priced = _search(query)
    return ClosureReport(query.mode, query.level, viol, examined, skipped, priced)


def _search(query):
    """(violation or None, examined, skipped, priced) of one query.

    R's vertex list is a hull round's own or, for an x-space formulation
    within the search limit, `_checked_vertices`; an empty list ends the
    search.  Without a list (a lifted R), an exact LP decides emptiness
    first and each cone vertex is priced by LP.
    """
    if query.mode not in ("pitch", "notch"):
        raise ValueError(f"mode must be 'pitch' or 'notch', not {query.mode!r}")
    if query.level < 1:
        raise ValueError("level must be at least 1")
    S, R = query.S, query.R
    n = S.n
    if R.n != n:
        raise ValueError(f"dimension mismatch: points {n}, relaxation {R.n}")
    limit = PITCH_SEARCH_LIMIT if query.mode == "pitch" else NOTCH_SEARCH_LIMIT
    V = getattr(R, "hvertices", None)
    if V is None:
        R = _formulation(R)
        query = ClosureQuery(query.mode, query.level, S, R)
        V = _checked_vertices(R) if R.is_hrep and n <= limit else None
    if lpsolve.is_empty(R) if V is None else not V:
        return None, 0, 0, 0
    if n > limit:
        raise ValueError(f"dimension {n} exceeds {query.mode} search limit {limit}")

    if query.mode == "pitch":
        scopes = [(I, ()) for k in range(1, n + 1)
                  for I in itertools.combinations(range(1, n + 1), k)]
    else:
        everything = tuple(range(1, n + 1))
        scopes = [(everything, tuple(i + 1 for i in range(n) if mask >> i & 1))
                  for mask in range(1 << n)]
    examined = skipped = priced = 0
    for I, neg in scopes:
        viol, cost = _price(query, I, neg, V)
        examined += 1
        skipped += cost == 0
        priced += cost
        if viol is not None:
            return viol, examined, skipped, priced
    return None, examined, skipped, priced


def _priced_minimum(R, a, const):
    out = lpsolve.optimize(R, a, "min")
    if out.status != "optimal":
        raise lpsolve.InternalError("pricing LP over a nonempty relaxation must be optimal")
    return out.value + const, out.x


def _price(query, I, neg, V):
    """Price the cone vertices of one scope: support I, complemented indices neg.

    Pitch scopes are (support, ()); notch scopes are (all variables,
    pattern).  `V` is R's certified or checked vertex list, or None to price
    each cone vertex with an LP.  Returns (violation or None, vertices priced).
    """
    # validity rows restricted to I; an all-zero row means no nonnegative
    # inequality on the scope can be valid (in notch mode: the point that
    # agrees with the pattern everywhere forces lhs = 0 < 1), so it is skipped
    S, R = query.S, query.R
    ns = set(neg)
    dvecs = set()
    for s in S.points:
        d = tuple((1 - s[i - 1]) if i in ns else s[i - 1] for i in I)
        if not any(d):
            return None, 0
        dvecs.add(d)
    W = None if V is None else [
        (tuple(g[-1] - g[i - 1] if i in ns else g[i - 1] for i in I), g[-1]) for g in V]
    n = S.n
    priced = 0
    for *C, e in _cone_generators(len(I), query.level, sorted(dvecs)):
        priced += 1
        if W is not None:
            # the least standard-form value over R is (s/D)/e; priced by LP below 1
            s, D = _vertex_minimum(W, C)
            if s >= e * D:
                continue
        coeffs = [Fraction(0)] * n
        for i, ci in zip(I, C):
            coeffs[i - 1] = Fraction(ci, e)
        a = tuple(-ci if i in ns else ci for i, ci in enumerate(coeffs, start=1))
        const = sum(coeffs[i - 1] for i in neg)
        Q = _formulation(R)
        value, point = _priced_minimum(Q, a, const)
        if W is not None and value != Fraction(s, e * D):
            raise lpsolve.InternalError("pricing LP disagrees with the relaxation's vertices")
        if value < 1:
            viol = Violation(
                n=n, neg=neg, coeffs=tuple(coeffs), delta=Fraction(1),
                point=point, value=value,
                support=tuple(i for i, ci in zip(I, C) if ci != 0))
            return _check_violation(query, viol, Q), priced
    return None, priced
