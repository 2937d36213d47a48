"""Reference answers for `optimize` and `member` from the hull route.

The lifted `.ef` files that the CLI writes are never read here.  Instead the
formula is applied to the unit box k times with `hull.lift_hrep`, which works
in x-space by vertex enumeration, and the vertices of the result are listed
with `vertices_of_hrep`.  An optimum is then the best objective value over
the vertices, and a point is inside when it satisfies every facet row and
every equation.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction


def _dot(a, x):
    return sum((Fraction(ai) * Fraction(xi) for ai, xi in zip(a, x)), Fraction(0))


class HullReference:
    """Vertices and facet rows of phi^k([0,1]^n), computed by the hull route."""

    def __init__(self, facets, equations, vertices):
        if not vertices:
            raise ValueError("the reference polytope is empty")
        self.facets = tuple(facets)
        self.equations = tuple(equations)
        self.vertices = tuple(vertices)

    def optimum(self, c, sense):
        values = [_dot(c, v) for v in self.vertices]
        return min(values) if sense == "min" else max(values)

    def contains(self, x):
        return (all(_dot(a, x) >= rhs for a, rhs in self.facets)
                and all(_dot(a, x) == rhs for a, rhs in self.equations))


def box_rows(n):
    """The unit box as rows a.x >= rhs."""
    rows = []
    for i in range(n):
        e = tuple(Fraction(int(j == i)) for j in range(n))
        rows.append((e, Fraction(0)))
        rows.append((tuple(-v for v in e), Fraction(-1)))
    return rows


def hull_reference(hull, phi, rounds):
    """Reference for `rounds` lifts of the reduced formula phi over the box.

    `hull` is the formlift.hull module in use.
    """
    rows = box_rows(phi.n)
    F = None
    for _ in range(rounds):
        F = hull.lift_hrep(phi, rows)
        if F is None:
            raise ValueError("the lift is empty")
        rows = F.rows()
    verts, rays = hull.vertices_of_hrep(F)
    if rays:
        raise ValueError("the lift is unbounded")
    return HullReference(F.facets, F.equations, verts)
