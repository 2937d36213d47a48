"""Exact convex hulls in small dimension by the double description method.

No floating point and no perturbation.  Facet enumeration of a point set
reduces to vertex enumeration of the polar body inside the affine hull, and
vertex enumeration of an inequality system runs double description on its
homogenization.  The kernel runs on Python ints: rows, rays and points
are primitive integer tuples (a point X/d is kept as (X, d)), Gaussian
elimination is fraction-free, and each ray carries its zero set as a
bitmask.  `fractions.Fraction` appears only at the edges: reading rational
rows and points, dividing a ray by its homogenizing coordinate, and the
values handed back to callers.  Inputs are capped at dimension HULL_LIMIT
because the method is exponential in general.  The x-space lift runs one
double description per OR chain: an OR node's points are the union of its
arms' points, nested ORs included, and only the chain's root is hulled.
A literal face needs none: its points are the base's vertices on it,
filtered from the vertex list that each round carries to the next.  Each
round's FacetList is canonical, and its vertex list is certified from both
sides where the round is made; the next round, `verify.check_completeness`
and the closure pricing of `measures` all rely on that list.  A polytope
given only by rows, a lift's base or an x-space relaxation that `measures`
prices, gets its list from `certified_vertices`, checked from both sides
too, with an exact LP proving each facet of the list's hull that no row
states.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import formula as fm
from . import lpsolve
from .lpsolve import _pairs, _rational

HULL_LIMIT = 8


def _reduced(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    mult = lcm(*(v.denominator for v in vec))
    return _reduced([v.numerator * (mult // v.denominator) for v in vec])


def _sign_normalized(vec) -> tuple[int, ...]:
    """Primitive vector with its first nonzero entry positive."""
    p = _primitive(vec)
    for v in p:
        if v != 0:
            if v < 0:
                p = tuple(-x for x in p)
            break
    return p


def _homogeneous(a, rhs) -> tuple[int, ...]:
    """The row a·x >= rhs as a primitive int row h with h·(x, 1) >= 0."""
    return _primitive((*a, -rhs))


def _point(g) -> tuple[Fraction, ...]:
    """The rational point X/d of a homogeneous point g = (X, d), d > 0."""
    d = g[-1]
    return tuple(Fraction(v, d) for v in g[:-1])


def _fractions(vec) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, vec))


# ---------------------------------------------------------------------------
# fraction-free Gaussian elimination


def _eliminate(row, prow, c):
    """`row` with column c cleared by `prow`, divided by its gcd."""
    p, f = prow[c], row[c]
    return _reduced([p * a - f * b for a, b in zip(row, prow)])


def _rref(mat):
    """Reduced row echelon form up to row scaling: (nonzero rows, pivot columns).

    Fraction-free Gauss-Jordan in the style of Edmonds and Bareiss on
    integer rows: each row is divided by its gcd, each step replaces a row
    by an integer multiply-subtract divided by its gcd, and no division by a
    pivot happens here.  Row k is zero in every pivot column but pivots[k];
    dividing it by that entry gives row k of the (unique) reduced row
    echelon form.
    """
    rows = [_reduced(r) for r in mat]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                rows[i] = _eliminate(rows[i], rows[r], c)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _nullspace(rref, pivots, ncols):
    """Null space basis of a `_rref` result as primitive int vectors.

    One vector per free column, positive in that column; it is the
    textbook basis vector (1 in the free column) scaled by a positive
    integer.
    """
    scale = lcm(*(row[pc] for row, pc in zip(rref, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(_reduced(v))
    return basis


# ---------------------------------------------------------------------------
# double description on cones


def _dd_pointed(rows, dim):
    """Extreme rays of {z : r·z >= 0 for r in rows} for a pointed cone.

    Rows must be primitive integer tuples, deduplicated, nonzero and already
    sorted, and dim at least 1.  Returns None when they do not have full
    rank, that is when the cone has a lineality space and is not pointed.
    Classic insertion with the combinatorial adjacency test, on Python ints
    throughout.  Each ray carries its zero set, the processed rows it is
    tight on, as an int bitmask over row indices.  A new ray vp·rn - vn·rp
    (vp > 0 > vn) is a positive combination of two rays that are nonnegative
    on every processed row, so it is tight exactly on (zp & zn) plus the new
    row: zero sets are carried forward, never recomputed.
    """
    # Greedy independent square subsystem for the initial simplicial cone.
    elim = []  # (pivot column, reduced row) pairs
    chosen = []
    for idx, row in enumerate(rows):
        v = row
        for pc, urow in elim:
            if v[pc] != 0:
                v = _eliminate(v, urow, pc)
        pc = next((c for c in range(dim) if v[c] != 0), None)
        if pc is None:
            continue
        elim.append((pc, v))
        chosen.append(idx)
        if len(chosen) == dim:
            break
    if len(chosen) < dim:
        return None

    # Initial rays are the columns of the inverse of the chosen submatrix B:
    # eliminating [B | I] leaves [D | D·B^-1] with D diagonal.
    aug = [rows[i] + tuple(int(j == k) for j in range(dim)) for k, i in enumerate(chosen)]
    red, _ = _rref(aug)
    scale = lcm(*(red[k][k] for k in range(dim)))
    rays = [_reduced([red[k][dim + j] * (scale // red[k][k]) for k in range(dim)])
            for j in range(dim)]
    tight = sum(1 << i for i in chosen)
    zs = [tight & ~(1 << i) for i in chosen]

    done = set(chosen)
    for idx, row in enumerate(rows):
        if idx in done:
            continue
        bit = 1 << idx
        vals = [sum(map(mul, row, r)) for r in rays]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new_rays, new_zs = [], []
        for kp, vp in enumerate(vals):
            if vp <= 0:
                continue
            rp, zp = rays[kp], zs[kp]
            for kn in neg:
                zc = zp & zs[kn]
                if zc.bit_count() < dim - 2:
                    continue
                # adjacent unless a third ray is tight on all of zc
                if sum(1 for z in zs if z & zc == zc) > 2:
                    continue
                vn, rn = vals[kn], rays[kn]
                new_rays.append(_reduced([vp * b - vn * a for a, b in zip(rp, rn)]))
                new_zs.append(zc | bit)
        keep = [k for k, v in enumerate(vals) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        zs = [zs[k] | bit if vals[k] == 0 else zs[k] for k in keep] + new_zs
    return sorted(set(rays))


def _dd_cone(raw_rows, dim):
    """Generators of {z : r·z >= 0}: (extreme rays, lineality basis).

    Rows are integer tuples, at least one of them nonzero; the generators
    are primitive integer tuples.
    """
    rows = sorted({_reduced(r) for r in raw_rows if any(r)})
    rays = _dd_pointed(rows, dim)
    if rays is not None:
        return rays, []
    rref, pivots = _rref(rows)
    # Quotient out the lineality space: pivot coordinates of the row space
    # parametrize representatives, and every row descends to them.
    qrows = sorted({_reduced([r[p] for p in pivots]) for r in rows})
    lifted = []
    for w in _dd_pointed(qrows, len(pivots)):
        vec = [0] * dim
        for p, val in zip(pivots, w):
            vec[p] = val
        lifted.append(tuple(vec))
    return sorted(lifted), [_sign_normalized(v) for v in _nullspace(rref, pivots, dim)]


def vertices_of_rows(hrows, n):
    """Minimal V-description of {x : h·(x, 1) >= 0 for h in hrows}.

    Rows are integer tuples of length n + 1.  Returns (points, rays,
    lineality) as primitive int tuples; a point is homogeneous, (X, d) with
    d > 0 for the vertex X/d.  An empty polyhedron yields three empty lists.
    """
    gens, lineality = _dd_cone(hrows + [(0,) * n + (1,)], n + 1)
    points = [g for g in gens if g[n] > 0]
    if not points:
        return [], [], []
    rays = [g[:n] for g in gens if g[n] == 0]
    return points, rays, sorted({_sign_normalized(l[:n]) for l in lineality})


def _hull(points, n):
    """Facets and affine-hull equations of conv(points) as homogeneous rows.

    `points` are homogeneous int points (X, d), d > 0.  Returns (facets,
    equations): primitive int rows h, with h·(x, 1) >= 0 for a facet and
    h·(x, 1) = 0 for an equation; an equation's first nonzero entry is
    positive.
    The points are scaled to integers by their common denominator D.  The
    equations come from fraction-free elimination; the facets from vertex
    enumeration of the polar body around the centroid c inside the affine
    hull, whose rows (c - w)·a >= -1 are multiplied by the point count so
    that they stay integral too.
    """
    D = lcm(*(g[n] for g in points))
    X = sorted({tuple(v * (D // g[n]) for v in g[:n]) for g in points})
    x0 = X[0]
    rref, pivots = _rref([[a - b for a, b in zip(x, x0)] for x in X[1:]])
    equations = []
    for b in _nullspace(rref, pivots, n):
        b = _sign_normalized(b)
        equations.append(_reduced([D * v for v in b] + [-sum(map(mul, b, x0))]))
    q = len(pivots)
    if q == 0:
        return [], equations

    m = len(X)
    W = [[x[p] - x0[p] for p in pivots] for x in X]
    S = [sum(col) for col in zip(*W)]
    polar = [tuple(s - m * w for s, w in zip(S, wj)) + (m,) for wj in W]
    pverts, prays, plin = vertices_of_rows(polar, q)
    if prays or plin:
        raise RuntimeError("internal: polar of a full-dimensional hull must be bounded")
    # a·(w - c) <= 1 for all w, tight on a facet, with a = g[:q]/g[q],
    # w_i = X[pivots[i]] - x0[pivots[i]], c = S/m and X = D·x; times m·g[q]
    # and flipped to >= form.  a = 0 is no vertex: every polar row is m there.
    shift = [S[i] + m * x0[p] for i, p in enumerate(pivots)]
    facets = []
    for g in pverts:
        h = [0] * (n + 1)
        for i, p in enumerate(pivots):
            h[p] = -m * D * g[i]
        h[n] = m * g[q] + sum(map(mul, g, shift))
        facets.append(_reduced(h))
    return facets, equations


# ---------------------------------------------------------------------------
# facet lists


def _check_dim(n):
    if n > HULL_LIMIT:
        raise ValueError(f"dimension {n} exceeds hull limit {HULL_LIMIT}")


@dataclass(frozen=True)
class FacetList:
    """H-description in x-space: rows a·x >= rhs plus affine equations.

    `facets_of_points` produces irredundant lists; the type itself also
    serves as a plain container of known valid rows.  The same rows come
    as homogeneous int rows too, outside equality: `hfacets` holds each
    facet as the primitive row h with h·(x, 1) >= 0 and `hequations` each
    equation as one with h·(x, 1) = 0.  A FacetList that `lift_hrep`
    returns also carries its certified vertices in `hvertices`, as
    homogeneous int points (X, d) for X/d.
    """

    n: int
    facets: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    equations: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    hvertices: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @functools.cached_property
    def hfacets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_homogeneous(a, rhs) for a, rhs in self.facets)

    @functools.cached_property
    def hequations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_homogeneous(a, rhs) for a, rhs in self.equations)

    def rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """All constraints as inequality rows (each equation becomes a pair)."""
        out = list(self.facets)
        for a, rhs in self.equations:
            out.append((a, rhs))
            out.append((tuple(-v for v in a), -rhs))
        return out

    def hrows(self) -> list[tuple[int, ...]]:
        """All constraints as homogeneous int rows, each equation as a pair."""
        return [*self.hfacets, *self.hequations, *(_negated(h) for h in self.hequations)]

    def to_text(self) -> str:
        """Serialize in the extended-formulation text format with yvars 0."""
        from .polytope import _write
        rows = lpsolve._int_rows([(_pairs(a), rhs) for a, rhs in self.rows()])
        return _write(self.n, 0, rows, ())


def _negated(h) -> tuple[int, ...]:
    return tuple(-v for v in h)


def _facet_list(n, facets, equations, vertices=None) -> FacetList:
    """The canonical FacetList of the homogeneous rows `_hull` returns.

    Facets are primitive and zero outside the pivot columns of the affine
    hull, equations have primitive coefficients, and both are sorted.  The
    int rows themselves, and `vertices` when given, ride along.
    """
    eqs = []
    for h in equations:
        k = gcd(*h[:n])
        eqs.append((tuple(Fraction(v // k) for v in h[:n]), Fraction(-h[n], k)))
    F = FacetList(n, tuple(sorted((_fractions(h[:n]), Fraction(-h[n])) for h in facets)),
                  tuple(sorted(eqs)))
    # the rows the cached properties would compute, in `_hull`'s order
    F.__dict__.update(hfacets=tuple(facets), hequations=tuple(equations))
    object.__setattr__(F, "hvertices", vertices)
    return F


def facets_of_points(points) -> FacetList:
    """Facets and affine-hull equations of the convex hull of finitely many points.

    Works in the affine hull: equations come from exact elimination, facets
    from vertex enumeration of the polar body around the centroid.  Every
    facet is valid for all points and tight on affinely many of them.
    """
    pts = [tuple(_rational(v) for v in p) for p in points]
    if not pts:
        raise ValueError("empty point set has no hull")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimensions")
    _check_dim(n)
    return _facet_list(n, *_hull({_primitive((*p, 1)) for p in pts}, n))


def vertices_of_hrep(F: FacetList):
    """Vertices and rays of an H-description; unbounded inputs are allowed.

    Each equation enters the double description as a pair of opposite
    rows.  Lineality directions, if any, are reported as opposite ray
    pairs.  An empty polyhedron gives two empty tuples.
    """
    n = F.n
    _check_dim(n)
    points, rays, lin = vertices_of_rows(F.hrows(), n)
    rays = set(rays)
    for l in lin:
        rays.add(l)
        rays.add(tuple(-v for v in l))
    return tuple(sorted(map(_point, points))), tuple(_fractions(r) for r in sorted(rays))


# ---------------------------------------------------------------------------
# hull equality of a lifted relaxation against an explicit point set


@dataclass(frozen=True)
class HullCheck:
    equal: bool
    reason: str = ""
    facet: tuple | None = None
    point: tuple | None = None

    def __bool__(self) -> bool:
        return self.equal


def equals_hull(Q, V) -> HullCheck:
    """Exact test whether the projected set of Q equals conv(V).

    Containment of Q in conv(V) is checked by minimizing every facet (and
    pinning every affine equation) of conv(V) over Q with exact LPs; the
    reverse containment checks membership of every point of V.  On failure
    the certificate is a separating facet with a violating point of Q, or a
    missing point of V.
    """
    pts = [tuple(_rational(v) for v in p) for p in V]
    if not pts:
        raise ValueError("empty point set; hull comparison needs at least one point")
    F = facets_of_points(pts)

    if Q.empty_marker:
        return HullCheck(False, "missing-point", None, pts[0])

    for a, rhs in F.equations:
        for sense, bad in (("min", lambda v: v < rhs), ("max", lambda v: v > rhs)):
            out = lpsolve.optimize(Q, a, sense)
            if out.status != "optimal":
                return HullCheck(False, "missing-point", None, pts[0])
            if bad(out.value):
                return HullCheck(False, "equation-violated", (a, rhs), out.x)
    for a, rhs in F.facets:
        out = lpsolve.optimize(Q, a, "min")
        if out.status != "optimal":
            return HullCheck(False, "missing-point", None, pts[0])
        if out.value < rhs:
            return HullCheck(False, "facet-violated", (a, rhs), out.x)
    for p in pts:
        if not lpsolve.contains_point(Q, p):
            return HullCheck(False, "missing-point", None, p)
    return HullCheck(True)


# ---------------------------------------------------------------------------
# x-space lift: the same set semantics as the extended formulation route,
# computed directly as an H-description at small dimension


def lift_hrep(phi, base):
    """Apply a reduced formula to a polytope inside the unit box, in x-space.

    Literals restrict to faces, AND intersects row systems, OR takes the
    convex hull of its arms.  Returns a canonical FacetList that carries
    its vertex list, or None when the result is empty.  `base` is a list
    of (coeffs, rhs) rows describing a polytope inside the unit box, or a
    FacetList such as the round before; a base that has a vertex outside
    the box, or is unbounded, raises ValueError.

    The base's vertices come from the FacetList when it carries them, and
    otherwise from `certified_vertices`, checked from both sides; `_points`
    lifts each node to points, with no double description for a face.  An OR
    chain is hulled once, from the union of the points of all its arms:
    conv(conv(A ∪ B) ∪ C) = conv(A ∪ B ∪ C), and `_hull` returns
    primitive, canonical facets and equations whatever redundant points it
    is given.  The round is then certified from both sides (Mehlhorn et
    al., "Checking geometric programs", 1999): `_vertices` prunes the
    points to the hull's vertices and checks every row at every point, so
    conv(vertices) lies in the rows, and the rows' own vertices, by the
    primal double description where `_hull` ran the polar one, must be
    exactly that list, so no vertex was lost.  Otherwise InternalError.
    """
    if not phi.is_reduced():
        raise ValueError("formula must be reduced before lifting")
    n = phi.n
    _check_dim(n)
    if isinstance(base, FacetList) and base.n != n:
        raise ValueError(f"dimension mismatch: formula {n}, base {base.n}")
    verts = getattr(base, "hvertices", None)
    if verts is None:
        rows = base.hrows() if isinstance(base, FacetList) else [
            _homogeneous(tuple(_rational(v) for v in a), _rational(rhs)) for a, rhs in base]
        verts = certified_vertices(rows, n)
        if verts is None or any(not 0 <= v <= g[n] for g in verts for v in g[:n]):
            raise ValueError("the base of a lift must be a polytope inside the unit box")
    points = _points(phi, _faces(verts, n), n)
    if not points:
        return None
    facets, equations = _hull(points, n)
    F = _facet_list(n, facets, equations, _vertices(points, facets, equations))
    points, rays, lin = vertices_of_rows(F.hrows(), n)
    if rays or lin or set(points) != set(F.hvertices):
        raise lpsolve.InternalError("a hull's rows and its vertex list disagree")
    return F


def _rounds(phi, base):
    """The rounds phi(P), phi(phi(P)), ... of the x-space base P.

    `base` is as for `lift_hrep`.  Yields each round's canonical FacetList,
    each lifted once by `lift_hrep` from the round before, whose rows and
    vertices it carries as ints, and None from the first empty round on.
    """
    while base is not None:
        base = lift_hrep(phi, base)
        yield base
    yield from itertools.repeat(None)


def certified_vertices(rows, n):
    """The vertices of {x : h·(x, 1) >= 0 for h in rows}, checked from both sides.

    `rows` are primitive homogeneous int rows.  Rows that state the unit
    box give its 2^n corners.  Otherwise one primal double description
    gives the vertices as homogeneous int points (X, d) for X/d, or None
    when the polyhedron has a ray or a line.  Every row must hold at every
    vertex, so conv(V) lies in the rows.  Every facet of conv(V), and every
    equation of its affine hull with both signs, must be one of the rows or
    be proved valid on them by an exact LP (`lpsolve.optimize_rows`), so
    the rows lie in conv(V) and no vertex was lost.  An empty list stands
    only once an exact LP finds the rows infeasible.  A failed check is an
    InternalError.
    """
    box_rows, corners = _unit_box(n)
    if set(rows) == box_rows:
        return corners
    points, rays, lin = vertices_of_rows(rows, n)
    if any(sum(map(mul, h, g)) < 0 for g in points for h in rows):
        raise lpsolve.InternalError("a vertex violates one of its rows")
    dense = [(h[:n], -h[n]) for h in rows]
    if not points:
        if lpsolve.optimize_rows(dense, n, (0,) * n).status != "infeasible":
            raise lpsolve.InternalError("a nonempty polyhedron has no vertex")
        return points
    if rays or lin:
        return None
    facets, equations = _hull(points, n)
    have = set(rows)
    for h in (*facets, *equations, *map(_negated, equations)):
        if h not in have:
            out = lpsolve.optimize_rows(dense, n, h[:n])
            if out.status != "optimal" or out.value < -h[n]:
                raise lpsolve.InternalError("a vertex of the rows is missing from their list")
    return points


@functools.cache
def _unit_box(n):
    """The homogeneous int rows of [0, 1]^n, as a set, and its corners (X, 1)."""
    rows = set()
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        rows.update((e + (0,), _negated(e) + (1,)))
    return frozenset(rows), tuple((*p, 1) for p in itertools.product((0, 1), repeat=n))


def _vertices(points, facets, equations):
    """The points that are vertices of conv(points), given `_hull`'s rows of it.

    Every facet is evaluated at every point, so a facet below 0 or an
    equation off 0 at a point is an InternalError.  A vertex is the only
    point of the face cut out by the facets it is tight on, and any other
    point lies in a face with at least two vertices, each tight on all of
    that point's facets.  So with the points tight on each facet held as an
    int bitmask, a point is a vertex exactly when the AND of the masks of
    its tight facets is its own bit.
    """
    points = list(points)
    on = [0] * len(facets)
    tight = []
    for k, g in enumerate(points):
        if any(sum(map(mul, h, g)) for h in equations):
            raise lpsolve.InternalError("a point of a hull is off one of its equations")
        mine = []
        for j, h in enumerate(facets):
            v = sum(map(mul, h, g))
            if v < 0:
                raise lpsolve.InternalError("a facet of a hull cuts off one of its points")
            if v == 0:
                on[j] |= 1 << k
                mine.append(j)
        tight.append(mine)
    out = []
    for k, g in enumerate(points):
        common = (1 << len(points)) - 1
        for j in tight[k]:
            common &= on[j]
        if common == 1 << k:
            out.append(g)
    return tuple(out)


def _faces(verts, n):
    """The base vertices `verts` (X, d) on each face X_i = v·d of the box,
    keyed (i, v), and all of them keyed None."""
    faces = {None: frozenset(verts)}
    for i in range(n):
        faces[i, 0] = frozenset(g for g in verts if g[i] == 0)
        faces[i, 1] = frozenset(g for g in verts if g[i] == g[n])
    return faces


def _points(node, faces, n):
    """Homogeneous int points whose convex hull is the lift of `node`, as a set.

    `faces` is the base's `_faces` table.  An OR node gives the union of
    its arms' points, nested ORs included, with no hull in between.  A
    literal, a constant or an AND of them gives the base's vertices on
    their face of the box, which is a face of the base.  An AND of them
    with one OR child X lifts to conv(X) ∩ {x_F = v}, a face of conv(X)
    inside the box: X's points on it.  An AND with more OR children gives
    the vertices of its fixes' rows and its children's hulls, which lie
    in the base.
    """
    if node.kind is fm.Kind.OR:
        return set().union(*(_points(arm, faces, n) for arm in node.children))
    split = fm.fixings(node)
    if split is None:
        return set()
    fixed, rest = split
    if not rest:
        on = [faces[var - 1, v] for var, v in fixed.items()] or [faces[None]]
        return min(on, key=len).intersection(*on)
    if len(rest) == 1:
        return {g for g in _points(rest[0], faces, n)
                if all(g[var - 1] == v * g[n] for var, v in fixed.items())}
    rows = []
    for var, v in fixed.items():
        a = tuple(int(j == var - 1) for j in range(n))
        rows += [a + (-v,), _negated(a) + (v,)]
    for child in rest:
        points = _points(child, faces, n)
        if not points:
            return set()
        facets, equations = _hull(points, n)
        rows += facets + equations + [_negated(h) for h in equations]
    points, rays, lin = vertices_of_rows(rows, n)
    if rays or lin:
        raise RuntimeError("internal: lift arms must stay bounded inside the box")
    return set(points)
