"""Exact convex hulls in small dimension by the double description method.

No floating point and no perturbation.  The facets of a point set's hull
are the extreme rays of the dual cone of the rows valid on its points,
taken inside their affine hull, and vertex enumeration of an inequality
system runs double description on its homogenization.  The kernel runs on
Python ints: rows, rays and points are primitive integer tuples (a point
X/d is kept as (X, d)), Gaussian elimination is fraction-free, and each
ray carries its zero set as a bitmask.  A FacetList holds int rows
(a, b, l), as formulations do, and `fractions.Fraction` appears only at the
edges: reading rational rows and points, a FacetList's `Fraction` rows,
built when read, and the points and rays handed back to callers.  Inputs
are capped at dimension HULL_LIMIT because the method is exponential in
general.  The x-space lift runs one double description per OR chain: an OR
node's points are the union of its arms' points, nested ORs included, and
only the chain's root is hulled.  Every AND, a literal included, lifts to
the face of the box that its fixes cut from the points below it: the
vertex list that each round carries to the next, its one OR child's
points, or the vertices of the meet of its OR children's hulls.  Within
one chain of rounds (`_rounds`) each distinct point set is hulled and
certified once, and a round whose points repeat an earlier round's is that
round's FacetList; nothing is kept beyond the chain.  Every
FacetList answers `hvertices`, its vertex list certified from both sides:
a round brings the list it was certified with where it was made, and any
other FacetList gets its list from `certified_vertices`, with an exact LP
proving each facet of the list's hull that no row states.  The next round,
`verify.check_completeness` and the closure pricing of `measures` all rely
on that list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import formula as fm
from . import lpsolve
from .lpsolve import _dense_row, _int_rows, _neg, _pairs, _rational

HULL_LIMIT = 8


def _reduced(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    mult = lcm(*(v.denominator for v in vec))
    return _reduced([v.numerator * (mult // v.denominator) for v in vec])


def _sign_normalized(ints) -> tuple[int, ...]:
    """An integer vector made primitive, with its first nonzero entry positive."""
    p = _reduced(ints)
    if next((v for v in p if v), 0) < 0:
        p = tuple(-v for v in p)
    return p


def _hrow(row, n) -> tuple[int, ...]:
    """The int row (a, b, l) as the primitive int row h with h·(x, 1) >= 0."""
    a = dict(row[0])
    return _reduced([a.get(j, 0) for j in range(n)] + [-row[1]])


def _point(g) -> tuple[Fraction, ...]:
    """The rational point X/d of a homogeneous point g = (X, d), d > 0."""
    d = g[-1]
    return tuple(Fraction(v, d) for v in g[:-1])


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


def vertices_of_rows(hrows, n):
    """Minimal V-description of {x : h·(x, 1) >= 0 for h in hrows}.

    Rows are integer tuples of length n + 1.  Returns (points, rays,
    lineality) as primitive int tuples; a point is homogeneous, (X, d) with
    d > 0 for the vertex X/d.  An empty polyhedron yields three empty lists.
    Double description runs on the homogenization, the rows with
    (0, ..., 0, 1) added, and a cone with a lineality space is quotiented
    down to the pivot coordinates of its row space first.
    """
    rows = sorted({_reduced(r) for r in [*hrows, (0,) * n + (1,)] if any(r)})
    gens = _dd_pointed(rows, n + 1)
    lineality = []
    if gens is None:
        rref, pivots = _rref(rows)
        # Pivot coordinates of the row space parametrize representatives
        # modulo the lineality space, and every row descends to them.
        qrows = sorted({_reduced([r[p] for p in pivots]) for r in rows})
        gens = []
        for w in _dd_pointed(qrows, len(pivots)):
            vec = [0] * (n + 1)
            for p, val in zip(pivots, w):
                vec[p] = val
            gens.append(tuple(vec))
        gens.sort()
        lineality = _nullspace(rref, pivots, n + 1)
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
    The points are scaled to integers by their common denominator D, and
    w is each scaled point minus the first, in the q pivot coordinates of
    their differences.  The equations come from fraction-free elimination
    of those differences.  The facets are the extreme rays (a, t) of the
    dual cone {(a, t) : a·w + t >= 0 at every w} of the rows valid on the
    points, by one pointed double description, since the w span q
    coordinates.  By Farkas' lemma the facets and (0, 1) generate that
    cone, and (0, 1) is a positive sum of facets when q >= 1.
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

    rays = _dd_pointed(sorted((*(x[p] - x0[p] for p in pivots), 1) for x in X), q + 1)
    if rays is None:
        raise lpsolve.InternalError("the valid rows of a hull must form a pointed cone")
    # a·(D·x - x0) + t >= 0 over the pivot coordinates p
    facets = []
    for g in rays:
        h = [0] * (n + 1)
        for a, p in zip(g, pivots):
            h[p] = D * a
        h[n] = g[q] - sum(a * x0[p] for a, p in zip(g, pivots))
        facets.append(_reduced(h))
    return facets, equations


def _hull_of(points, n, made):
    """`_hull(points, n)`, run once per distinct point set in the dict `made`."""
    key = ("hull", frozenset(points))
    if key not in made:
        made[key] = _hull(points, n)
    return made[key]


def _hull_rows(facets, equations):
    """`_hull`'s rows as rows h with h·(x, 1) >= 0: the facets, then each
    equation both ways."""
    return facets + [r for h in equations for r in (h, tuple(-v for v in h))]


# ---------------------------------------------------------------------------
# facet lists


def _check_dim(n):
    if n > HULL_LIMIT:
        raise ValueError(f"dimension {n} exceeds hull limit {HULL_LIMIT}")


@dataclass(frozen=True, init=False)
class FacetList:
    """H-description in x-space: rows a·x >= rhs plus affine equations.

    `facets_of_points` produces irredundant lists; the type itself also
    serves as a plain container of known valid rows, each with n
    coefficients, kept at their scale as int rows (a, b, l) in the form of
    `lpsolve._int_rows`: `ifacets` and `iequations`, which decide equality.
    `facets` and `equations` are the same rows as dense `Fraction` rows,
    built when read.  `hvertices` holds the vertices as homogeneous int
    points (X, d) for X/d, certified from both sides: a round of
    `lift_hrep` carries the list it was certified with, and any other
    FacetList gets its list from `certified_vertices`.  It is None when
    the rows state no polytope inside the unit box: a ray, a line or a
    vertex outside [0, 1]^n.
    """

    n: int
    ifacets: tuple
    iequations: tuple = ()

    def __init__(self, n, facets, equations=()):
        facets, equations = tuple(facets), tuple(equations)
        for a, _ in (*facets, *equations):
            if len(a) != n:
                raise ValueError(f"row has {len(a)} coefficients, expected {n}")
        self.__dict__.update(n=n, ifacets=_int_rows((_pairs(a), rhs) for a, rhs in facets),
                             iequations=_int_rows((_pairs(a), rhs) for a, rhs in equations))

    @functools.cached_property
    def facets(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        return tuple(_dense_row(row, self.n) for row in self.ifacets)

    @functools.cached_property
    def equations(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        return tuple(_dense_row(row, self.n) for row in self.iequations)

    @functools.cached_property
    def hvertices(self) -> tuple[tuple[int, ...], ...] | None:
        n = self.n
        _check_dim(n)
        verts = certified_vertices(self.hrows(), n)
        if verts is None or any(not 0 <= v <= g[n] for g in verts for v in g[:n]):
            return None
        return tuple(verts)

    def irows(self) -> list[tuple]:
        """All constraints as int rows (each equation becomes a pair)."""
        out = list(self.ifacets)
        for a, b, l in self.iequations:
            out += [(a, b, l), (_neg(a), -b, l)]
        return out

    def rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """All constraints as dense `Fraction` rows (each equation becomes a pair)."""
        return [_dense_row(row, self.n) for row in self.irows()]

    def hrows(self) -> list[tuple[int, ...]]:
        """All constraints as homogeneous int rows (each equation becomes a pair)."""
        return [_hrow(row, self.n) for row in self.irows()]

    def to_text(self) -> str:
        """Serialize in the extended-formulation text format with yvars 0."""
        from .polytope import _write
        return _write(self.n, 0, self.irows(), ())


def _of_int_rows(n, facets, equations=(), vertices=None) -> FacetList:
    """The FacetList of canonical int rows as they are, with `vertices` when given."""
    F = object.__new__(FacetList)
    F.__dict__.update(n=n, ifacets=tuple(facets), iequations=tuple(equations))
    if vertices is not None:
        F.__dict__["hvertices"] = vertices
    return F


def _facet_list(n, facets, equations, vertices=None) -> FacetList:
    """The canonical FacetList of the primitive homogeneous rows `_hull`
    returns: facet h is the int row (h[:n], -h[n], 1) and equation h is
    (h[:n], -h[n], gcd(h[:n])).  Facets are sorted by (h[:n], -h[n]) and
    equations by h[:n] over that gcd; no two rows of a hull share a
    direction."""
    facets = sorted(facets, key=lambda h: (h[:n], -h[n]))
    equations = sorted(equations, key=lambda h: [v // gcd(*h[:n]) for v in h[:n]])
    return _of_int_rows(n, [(_pairs(h[:n]), -h[n], 1) for h in facets],
                        [(_pairs(h[:n]), -h[n], gcd(*h[:n])) for h in equations], vertices)


def facets_of_points(points) -> FacetList:
    """Facets and affine-hull equations of the convex hull of finitely many points.

    Works in the affine hull: equations come from exact elimination, facets
    are the extreme rays of the dual cone of the rows valid on the points.
    Every facet is valid for all points and tight on affinely many of them.
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
    return tuple(sorted(map(_point, points))), tuple(tuple(map(Fraction, r)) for r in sorted(rays))


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


def lift_hrep(phi, base, *, made=None):
    """Apply a reduced formula to a polytope inside the unit box, in x-space.

    Literals restrict to faces, AND intersects row systems, OR takes the
    convex hull of its arms.  Returns a canonical FacetList that carries
    its vertex list, or None when the result is empty.  `base` is a
    FacetList such as the round before, or a list of (coeffs, rhs) rows,
    read as a FacetList; a base whose `hvertices` is None, one with a
    vertex outside the box or unbounded, raises ValueError.

    `_points` lifts each node to points from the base's vertex list.  An
    AND keeps the points below it that lie on its fixes' face of the box,
    with no row for a fix.  An OR chain is hulled once, from the union of
    the points of all its arms: conv(conv(A ∪ B) ∪ C) = conv(A ∪ B ∪ C),
    and `_hull` returns primitive, canonical facets and equations whatever
    redundant points it is given.  The round is then certified from both
    sides (Mehlhorn et al., "Checking geometric programs", 1999):
    `_vertices` prunes the points to the hull's vertices and checks every
    row at every point, so conv(vertices) lies in the rows, and the rows'
    own vertices, by the primal double description where `_hull` ran it
    on the dual cone, must be exactly that list, so no vertex was lost.
    Otherwise InternalError.

    `made`, which `_rounds` passes, is one dict for all the rounds of a
    chain.  It maps ("hull", points) to `_hull` of the points of an OR
    child or of a round, and ("round", points) to the certified FacetList
    of a round's points, each point set a frozenset.  Both depend on the
    point set alone, so each distinct point set is hulled and certified
    once per chain, and a round whose points repeat an earlier round's is
    that round's FacetList, certified for exactly those points.
    """
    n = phi.n
    if not isinstance(base, FacetList):
        base = FacetList(n, base)
    _check_lift(phi, base)
    if base.hvertices is None:
        raise ValueError("the base of a lift must be a polytope inside the unit box")
    made = {} if made is None else made
    points = _points(phi, base.hvertices, n, made)
    if not points:
        return None
    key = ("round", frozenset(points))
    if key not in made:
        facets, equations = _hull_of(points, n, made)
        F = _facet_list(n, facets, equations, _vertices(points, facets, equations))
        points, rays, lin = vertices_of_rows(F.hrows(), n)
        if rays or lin or set(points) != set(F.hvertices):
            raise lpsolve.InternalError("a hull's rows and its vertex list disagree")
        made[key] = F
    return made[key]


def _check_lift(phi, base):
    """Refuse a formula that is not reduced or is over another dimension than base."""
    if not phi.is_reduced():
        raise ValueError("formula must be reduced before lifting")
    if phi.n != base.n:
        raise ValueError(f"dimension mismatch: formula {phi.n}, relaxation {base.n}")


def _rounds(phi, base):
    """The rounds phi(P), phi(phi(P)), ... of the x-space base P.

    `base` is as for `lift_hrep`.  Yields each round's canonical FacetList,
    each lifted once by `lift_hrep` from the round before, whose rows and
    vertices it carries as ints, and None from the first empty round on.
    The rounds share one `made` dict of `lift_hrep`, kept as long as the
    generator, so a round whose points repeat an earlier round's is that
    round's FacetList.
    """
    made = {}
    while base is not None:
        base = lift_hrep(phi, base, made=made)
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
    have = set(rows)
    for h in _hull_rows(*_hull(points, n)):
        if h not in have:
            out = lpsolve.optimize_rows(dense, n, h[:n])
            if out.status != "optimal" or out.value < -h[n]:
                raise lpsolve.InternalError("a vertex of the rows is missing from their list")
    return points


@functools.cache
def _box_rows(n) -> tuple:
    """The 2n int rows of [0, 1]^n over x: x_i >= 0, then -x_i >= -1, for each i."""
    return tuple(row for i in range(n) for row in ((((i, 1),), 0, 1), (((i, -1),), -1, 1)))


@functools.cache
def _unit_box(n):
    """The homogeneous int rows of [0, 1]^n, as a set, and its corners (X, 1)."""
    return (frozenset(_hrow(row, n) for row in _box_rows(n)),
            tuple((*p, 1) for p in itertools.product((0, 1), repeat=n)))


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


def _points(node, verts, n, made):
    """Homogeneous int points whose convex hull is the lift of `node`, as a set.

    `verts` is the base's vertex list.  An OR node gives the union of its
    arms' points, nested ORs included, with no hull in between.  Any other
    node is an AND of fixes x_F = v and OR children, a literal or a
    constant being the AND of itself.  It first takes a point set `below`:
    the base's vertices when it has no OR child, its one OR child's points,
    or the vertices of the meet of its OR children's hulls, each child's
    hull taken from `lift_hrep`'s dict `made`.  conv(below)
    lies in the box, so {x_F = v} cuts a face of it, and the node's lift,
    that face, is the hull of the points of `below` on it.
    """
    if node.kind is fm.Kind.OR:
        return set().union(*(_points(arm, verts, n, made) for arm in node.children))
    split = fm.fixings(node)
    if split is None:
        return set()
    fixed, rest = split
    if not rest:
        below = verts
    elif len(rest) == 1:
        below = _points(rest[0], verts, n, made)
    else:
        rows = []
        for child in rest:
            points = _points(child, verts, n, made)
            if not points:
                return set()
            rows += _hull_rows(*_hull_of(points, n, made))
        below, rays, lin = vertices_of_rows(rows, n)
        if rays or lin:
            raise lpsolve.InternalError("lift arms must stay bounded inside the box")
    return {g for g in below if all(g[var - 1] == v * g[n] for var, v in fixed.items())}
