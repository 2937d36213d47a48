"""Exact convex hulls in small dimension by the double description method.

Everything here is rational arithmetic on `fractions.Fraction`; no floating
point and no perturbation.  Facet enumeration of a point set reduces to
vertex enumeration of the polar body inside the affine hull, and vertex
enumeration of an inequality system runs double description on its
homogenization.  Inputs are capped at a configurable dimension (default 8)
because the method is exponential in general.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import formula as fm
from .lpsolve import _rational

HULL_LIMIT = 8


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _primitive(vec) -> tuple[Fraction, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    vec = [Fraction(v) for v in vec]
    mult = 1
    for v in vec:
        d = v.denominator
        mult = mult * d // gcd(mult, d)
    ints = [int(v * mult) for v in vec]
    g = 0
    for i in ints:
        g = gcd(g, abs(i))
    if g == 0:
        return tuple(Fraction(0) for _ in vec)
    return tuple(Fraction(i // g) for i in ints)


def _sign_normalized(vec) -> tuple[Fraction, ...]:
    """Primitive vector with its first nonzero entry positive."""
    p = _primitive(vec)
    for v in p:
        if v != 0:
            if v < 0:
                p = tuple(-x for x in p)
            break
    return p


# ---------------------------------------------------------------------------
# exact Gaussian elimination


def _rref(mat):
    """Reduced row echelon form; returns (nonzero rows, pivot column list)."""
    rows = [list(r) for r in mat]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _nullspace(mat, ncols):
    """Basis of {v : mat v = 0}, one vector per free column, deterministic."""
    rref, pivots = _rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def _solve_affine(equations, n):
    """Particular solution and direction basis of a·x = rhs rows; None if inconsistent."""
    aug = [list(a) + [rhs] for a, rhs in equations]
    rref, pivots = _rref(aug)
    if n in pivots:
        return None
    x0 = [Fraction(0)] * n
    for row, pc in zip(rref, pivots):
        x0[pc] = row[n]
    basis = _nullspace([row[:n] for row in rref], n)
    return tuple(x0), basis


# ---------------------------------------------------------------------------
# double description on cones


def _dd_pointed(rows, dim):
    """Extreme rays of {z : r·z >= 0 for r in rows} for a pointed cone.

    Rows must be primitive, deduplicated, nonzero and already sorted; the
    caller guarantees full rank (pointedness).  Classic insertion with the
    combinatorial adjacency test; tight sets are recomputed exactly so
    degeneracy is harmless.
    """
    if dim == 0:
        return []
    # Greedy independent square subsystem for the initial simplicial cone.
    elim = []  # (pivot column, normalized row) pairs
    chosen = []
    for idx, row in enumerate(rows):
        v = list(row)
        for pc, urow in elim:
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, urow)]
        pc = next((c for c in range(dim) if v[c] != 0), None)
        if pc is None:
            continue
        pv = v[pc]
        elim.append((pc, [a / pv for a in v]))
        chosen.append(idx)
        if len(chosen) == dim:
            break
    if len(chosen) < dim:
        raise RuntimeError("internal: cone not pointed after lineality removal")

    # Initial rays are the columns of the inverse of the chosen submatrix.
    basis = [list(rows[i]) for i in chosen]
    inv = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    work = [list(r) for r in basis]
    for c in range(dim):
        pr = next(i for i in range(c, dim) if work[i][c] != 0)
        work[c], work[pr] = work[pr], work[c]
        inv[c], inv[pr] = inv[pr], inv[c]
        pv = work[c][c]
        work[c] = [v / pv for v in work[c]]
        inv[c] = [v / pv for v in inv[c]]
        for i in range(dim):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[c])]
    rays = [_primitive([inv[i][j] for i in range(dim)]) for j in range(dim)]

    processed = list(chosen)

    def tightset(vec):
        return frozenset(i for i in processed if _dot(rows[i], vec) == 0)

    ray_z = [(r, tightset(r)) for r in rays]

    for idx in range(len(rows)):
        if idx in chosen:
            continue
        row = rows[idx]
        vals = [(_dot(row, r), r, z) for r, z in ray_z]
        pos = [(v, r, z) for v, r, z in vals if v > 0]
        zero = [(r, z) for v, r, z in vals if v == 0]
        neg = [(v, r, z) for v, r, z in vals if v < 0]
        processed.append(idx)
        if not neg:
            ray_z = [(r, z | {idx}) for r, z in zero] + [(r, z) for v, r, z in pos]
            continue
        others = [z for _, _, z in vals]
        new = []
        for vp, rp, zp in pos:
            for vn, rn, zn in neg:
                zc = zp & zn
                if len(zc) < dim - 2:
                    continue
                if any(zc <= z2 for z2 in others if z2 is not zp and z2 is not zn):
                    continue
                vec = _primitive([vp * b - vn * a for a, b in zip(rp, rn)])
                new.append((vec, tightset(vec)))
        ray_z = [(r, z | {idx}) for r, z in zero] + [(r, z) for v, r, z in pos] + new

    return sorted({r for r, _ in ray_z})


def _dd_cone(raw_rows, dim):
    """Generators of {z : r·z >= 0}: (extreme rays, lineality basis)."""
    rows = sorted({_primitive(r) for r in raw_rows if any(v != 0 for v in r)})
    if not rows:
        return [], [_sign_normalized(tuple(Fraction(1 if j == i else 0) for j in range(dim)))
                    for i in range(dim)]
    lineality = _nullspace(rows, dim)
    if not lineality:
        return _dd_pointed(rows, dim), []
    # Quotient out the lineality space: pivot coordinates of the row space
    # parametrize representatives, and every row descends to them.
    _, pivots = _rref(rows)
    qrows = sorted({_primitive([r[p] for p in pivots]) for r in rows})
    qrays = _dd_pointed(qrows, len(pivots))
    lifted = []
    for w in qrays:
        vec = [Fraction(0)] * dim
        for p, val in zip(pivots, w):
            vec[p] = val
        lifted.append(_primitive(vec))
    return sorted(lifted), [_sign_normalized(v) for v in lineality]


def _vertices_of_rows(ineq_rows, n):
    """Minimal V-description of {x : a·x >= b}: (vertices, rays, lineality).

    An empty polyhedron yields three empty lists.  Rays and lineality are
    primitive integer directions.
    """
    hrows = [tuple(a) + (-Fraction(rhs),) for a, rhs in ineq_rows]
    hrows.append(tuple(Fraction(0) for _ in range(n)) + (Fraction(1),))
    rays, lineality = _dd_cone(hrows, n + 1)
    verts = set()
    rec = set()
    for g in rays:
        x0 = g[n]
        if x0 > 0:
            verts.add(tuple(v / x0 for v in g[:n]))
        elif any(v != 0 for v in g[:n]):
            rec.add(_primitive(g[:n]))
    if not verts:
        return [], [], []
    lin = [_sign_normalized(l[:n]) for l in lineality]
    return sorted(verts), sorted(rec), sorted(set(lin))


# ---------------------------------------------------------------------------
# facet lists


@dataclass(frozen=True)
class FacetList:
    """H-description in x-space: rows a·x >= rhs plus affine equations.

    `facets_of_points` produces irredundant lists; the type itself also
    serves as a plain container of known valid rows.
    """

    n: int
    facets: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    equations: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()

    def rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """All constraints as inequality rows (each equation becomes a pair)."""
        out = list(self.facets)
        for a, rhs in self.equations:
            out.append((a, rhs))
            out.append((tuple(-v for v in a), -rhs))
        return out

    def to_text(self) -> str:
        """Serialize in the extended-formulation text format with yvars 0."""
        from .polytope import _pairs, _write
        return _write(self.n, 0, [(_pairs(a), rhs) for a, rhs in self.rows()], ())


def facets_of_points(points, limit: int = HULL_LIMIT) -> FacetList:
    """Facets and affine-hull equations of the convex hull of finitely many points.

    Works in the affine hull: equations come from exact elimination, facets
    from vertex enumeration of the polar body around the centroid.  Every
    facet is valid for all points and tight on affinely many of them.
    """
    if isinstance(points, fm.PointSet01):
        pts = [tuple(Fraction(v) for v in p) for p in points.points]
    else:
        pts = [tuple(_rational(v) for v in p) for p in points]
    if not pts:
        raise ValueError("empty point set has no hull")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimensions")
    if n > limit:
        raise ValueError(f"dimension {n} exceeds hull limit {limit}")
    pts = sorted(set(pts))

    v0 = pts[0]
    diffs = [[p[i] - v0[i] for i in range(n)] for p in pts[1:]]
    equations = tuple(sorted(
        (a, _dot(a, v0))
        for a in (_sign_normalized(b) for b in _nullspace(diffs, n))
    ))
    _, pivots = _rref(diffs) if diffs else ([], [])
    q = len(pivots)
    if q == 0:
        return FacetList(n, (), equations)

    wpts = [tuple(p[c] - v0[c] for c in pivots) for p in pts]
    centroid = tuple(sum(w[i] for w in wpts) / len(wpts) for i in range(q))
    polar_rows = [(tuple(centroid[i] - w[i] for i in range(q)), Fraction(-1)) for w in wpts]
    pverts, prays, plin = _vertices_of_rows(polar_rows, q)
    if prays or plin:
        raise RuntimeError("internal: polar of a full-dimensional hull must be bounded")

    facets = []
    for a in pverts:
        if all(v == 0 for v in a):
            continue
        # a·(w - centroid) <= 1 for all w, tight on a facet; rewritten over x
        # via w_i = x[pivots[i]] - v0[pivots[i]] and flipped to >= form.
        bound = Fraction(1) + _dot(a, centroid) + sum(a[i] * v0[pivots[i]] for i in range(q))
        g = [Fraction(0)] * n
        for i in range(q):
            g[pivots[i]] = -a[i]
        norm = _primitive(g + [-bound])
        facets.append((norm[:n], norm[n]))
    return FacetList(n, tuple(sorted(facets)), equations)


def vertices_of_hrep(F: FacetList, limit: int = HULL_LIMIT):
    """Vertices and rays of an H-description; unbounded inputs are allowed.

    Lineality directions, if any, are reported as opposite ray pairs.  An
    empty polyhedron gives two empty tuples.
    """
    n = F.n
    if n > limit:
        raise ValueError(f"dimension {n} exceeds hull limit {limit}")
    if F.equations:
        sol = _solve_affine(F.equations, n)
        if sol is None:
            return (), ()
        x0, basis = sol
        q = len(basis)
        if q == 0:
            ok = all(_dot(a, x0) >= rhs for a, rhs in F.facets)
            return ((tuple(x0),) if ok else ()), ()
        wrows = []
        for a, rhs in F.facets:
            wa = tuple(_dot(a, d) for d in basis)
            wrhs = rhs - _dot(a, x0)
            if all(v == 0 for v in wa):
                if wrhs > 0:
                    return (), ()
                continue
            wrows.append((wa, wrhs))
        verts_w, rays_w, lin_w = _vertices_of_rows(wrows, q)

        def back(w):
            x = list(x0)
            for coef, d in zip(w, basis):
                for i in range(n):
                    x[i] += coef * d[i]
            return tuple(x)

        def backdir(w):
            x = [Fraction(0)] * n
            for coef, d in zip(w, basis):
                for i in range(n):
                    x[i] += coef * d[i]
            return _primitive(x)

        verts = sorted(back(w) for w in verts_w)
        rays = {backdir(w) for w in rays_w}
        for l in lin_w:
            d = backdir(l)
            rays.add(d)
            rays.add(tuple(-v for v in d))
        return tuple(verts), tuple(sorted(rays))

    verts, rays, lin = _vertices_of_rows(list(F.facets), n)
    allrays = set(rays)
    for l in lin:
        allrays.add(l)
        allrays.add(tuple(-v for v in l))
    return tuple(verts), tuple(sorted(allrays))


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


def equals_hull(Q, V, limit: int = HULL_LIMIT) -> HullCheck:
    """Exact test whether the projected set of Q equals conv(V).

    Containment of Q in conv(V) is checked by minimizing every facet (and
    pinning every affine equation) of conv(V) over Q with exact LPs; the
    reverse containment checks membership of every point of V.  On failure
    the certificate is a separating facet with a violating point of Q, or a
    missing point of V.
    """
    from . import lpsolve

    if isinstance(V, fm.PointSet01):
        pts = [tuple(Fraction(v) for v in p) for p in V.points]
    else:
        pts = [tuple(_rational(v) for v in p) for p in V]
    if not pts:
        raise ValueError("empty point set; hull comparison needs at least one point")
    F = facets_of_points(pts, limit)

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


def lift_hrep(phi, base, limit: int = HULL_LIMIT):
    """Apply a reduced formula to a polytope given by rows in x-space.

    Literals restrict to faces, AND intersects row systems, OR takes the
    convex hull of the two arms by vertex enumeration.  Returns a canonical
    FacetList, or None when the result is empty.  `base` is a FacetList or a
    list of (coeffs, rhs) rows describing a polytope inside the unit box.
    """
    if not phi.is_reduced():
        raise ValueError("formula must be reduced before lifting")
    if isinstance(base, FacetList):
        if base.n != phi.n:
            raise ValueError(f"dimension mismatch: formula {phi.n}, polytope {base.n}")
        rows = base.rows()
        n = base.n
    else:
        rows = [(tuple(_rational(v) for v in a), _rational(rhs)) for a, rhs in base]
        n = phi.n
    if n > limit:
        raise ValueError(f"dimension {n} exceeds hull limit {limit}")

    out = _lift_rows(phi, rows, n, limit)
    if out is None:
        return None
    verts = _bounded_vertices(out, n)
    if not verts:
        return None
    return facets_of_points(verts, limit)


def _bounded_vertices(rows, n):
    verts, rays, lin = _vertices_of_rows(rows, n)
    if rays or lin:
        raise RuntimeError("internal: lift arms must stay bounded inside the box")
    return verts


def _lift_rows(node, rows, n, limit):
    k = node.kind
    if k is fm.Kind.CONST:
        return rows if node.value else None
    if k is fm.Kind.LIT:
        v = Fraction(0 if node.negated else 1)
        a = tuple(Fraction(1 if i == node.var - 1 else 0) for i in range(n))
        na = tuple(-x for x in a)
        return rows + [(a, v), (na, -v)]
    left = _lift_rows(node.children[0], rows, n, limit)
    right = _lift_rows(node.children[1], rows, n, limit)
    if k is fm.Kind.AND:
        if left is None or right is None:
            return None
        return list(dict.fromkeys(itertools.chain(left, right)))
    # OR: convex hull of the two arms
    va = _bounded_vertices(left, n) if left is not None else []
    vb = _bounded_vertices(right, n) if right is not None else []
    verts = sorted(set(va) | set(vb))
    if not verts:
        return None
    return facets_of_points(verts, limit).rows()
