import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlift import formula as fm
from formlift import hull
from formlift import lpsolve as lp
from formlift import polytope as pt

F = Fraction


def test_facets_of_unit_square():
    Fl = hull.facets_of_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not Fl.equations
    assert sorted(Fl.facets) == sorted([
        ((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1)),
        ((F(0), F(1)), F(0)), ((F(0), F(-1)), F(-1))])


def test_facets_of_segment_uses_equations():
    Fl = hull.facets_of_points([(0, 0), (1, 1)])
    assert len(Fl.equations) == 1
    a, rhs = Fl.equations[0]
    assert a[0] * 0 + a[1] * 0 == rhs and a[0] + a[1] == rhs


def test_facets_of_single_point():
    Fl = hull.facets_of_points([(F(1, 3), F(2, 5))])
    assert len(Fl.equations) == 2
    assert not Fl.facets


def test_facets_are_primitive_integer_normalized():
    Fl = hull.facets_of_points([(0, 0), (F(1, 2), F(1, 2)), (1, 0)])
    for a, rhs in Fl.facets:
        assert all(v.denominator == 1 for v in a) and rhs.denominator == 1


def test_vertices_of_hrep_cube():
    rows = pt.cube(3).xspace_rows()
    verts, rays = hull.vertices_of_hrep(hull.FacetList(3, tuple(rows)))
    assert not rays
    assert sorted(verts) == sorted(itertools.product((0, 1), repeat=3))


def test_vertices_of_hrep_halfplane_has_rays():
    Fl = hull.FacetList(2, (((F(1), F(0)), F(0)),))
    verts, rays = hull.vertices_of_hrep(Fl)
    assert rays
    # x >= 0: recession cone spans e1 and the +-e2 lineality pair
    assert (F(0), F(1)) in rays and (F(0), F(-1)) in rays


def test_vertices_of_hrep_empty():
    Fl = hull.FacetList(1, (((F(1),), F(2)), ((F(-1),), F(0))))
    verts, rays = hull.vertices_of_hrep(Fl)
    assert verts == () and rays == ()


def test_vertices_with_equations():
    # x1 + x2 = 1 inside the square
    rows = pt.cube(2).xspace_rows()
    Fl = hull.FacetList(2, tuple(rows), (((F(1), F(1)), F(1)),))
    verts, rays = hull.vertices_of_hrep(Fl)
    assert sorted(verts) == [(F(0), F(1)), (F(1), F(0))]
    assert not rays


def test_roundtrip_random_01_sets():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        pts = [p for p in itertools.product((0, 1), repeat=n) if rng.random() < 0.4]
        if not pts:
            continue
        Fl = hull.facets_of_points(pts)
        verts, rays = hull.vertices_of_hrep(Fl)
        assert not rays
        want = {tuple(F(v) for v in p) for p in _extreme(pts)}
        assert set(verts) == want


def _extreme(pts):
    # brute-force extreme points: p is extreme iff not in hull of the others,
    # checked by a small LP over convex multipliers
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or not _in_hull(p, others):
            out.append(p)
    return out


def _in_hull(p, others):
    # feasibility of sum l_i q_i = p, sum l_i = 1, l >= 0
    m = len(others)
    rows = []
    n = len(p)
    for k in range(n):
        a = tuple(F(q[k]) for q in others)
        rows.append((a, F(p[k])))
        rows.append((tuple(-v for v in a), -F(p[k])))
    ones = tuple(F(1) for _ in range(m))
    rows.append((ones, F(1)))
    rows.append((tuple(-v for v in ones), F(-1)))
    for i in range(m):
        rows.append((tuple(F(1) if j == i else F(0) for j in range(m)), F(0)))
    return lp.optimize_rows(rows, m, tuple(F(0) for _ in range(m)), "min").status == "optimal"


def test_equals_hull_pass_and_reasons():
    ef, _ = pt.lift(fm.reduce(fm.parse("x1 | x2", 2)), pt.cube(2))
    S = fm.enumerate_set(fm.parse("x1 | x2", 2))
    assert hull.equals_hull(ef, S)
    # cube strictly contains the hull: a facet of the hull is violated
    chk = hull.equals_hull(pt.cube(2), S)
    assert not chk and chk.reason == "facet-violated"
    a, rhs = chk.facet
    got = sum(ai * xi for ai, xi in zip(a, chk.point))
    assert got < rhs
    # too small a lift misses points
    tight = pt.face_restrict(pt.cube(2), {1: 1})
    chk2 = hull.equals_hull(tight, S)
    assert not chk2 and chk2.reason == "missing-point"


def test_equals_hull_marker_and_empty_inputs():
    assert not hull.equals_hull(pt.empty_formulation(2), [(0, 0)])
    with pytest.raises(ValueError):
        hull.equals_hull(pt.cube(2), [])


def test_equals_hull_equation_violation():
    S = [(0, 1), (1, 0)]
    chk = hull.equals_hull(pt.cube(2), S)
    assert not chk and chk.reason == "equation-violated"


def test_lift_hrep_matches_ef_route():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 3)
        phi = fm.reduce(_random_reduced(rng, n))
        rows = pt.cube(n).xspace_rows()
        Fl = hull.lift_hrep(phi, rows)
        ef, _ = pt.lift(phi, pt.cube(n))
        if Fl is None:
            assert ef.empty_marker
            continue
        Q = pt.from_hrep(n, Fl.rows())
        for _ in range(6):
            c = [rng.randint(-2, 2) for _ in range(n)]
            assert lp.optimize(Q, c, "min").value == lp.optimize(ef, c, "min").value


def _random_reduced(rng, n):
    size = rng.randint(1, 5)
    def build(s):
        if s == 1:
            return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.4)
        left = rng.randint(1, s - 1)
        op = fm.land if rng.random() < 0.5 else fm.lor
        return op(build(left), build(s - left))
    return build(size)


def test_lift_hrep_empty_result():
    phi = fm.reduce(fm.parse("x1 & !x1", 1))
    assert hull.lift_hrep(phi, pt.cube(1).xspace_rows()) is None


def test_lift_hrep_hulls_an_or_chain_once(monkeypatch):
    calls = []
    real = hull._hull
    monkeypatch.setattr(hull, "_hull", lambda points, n: calls.append(n) or real(points, n))
    phi = fm.reduce(fm.parse("x1 | x2 | x3 | x4", 4))
    Fl = hull.lift_hrep(phi, pt.cube(4).xspace_rows())
    assert calls == [4]
    monkeypatch.undo()
    ones = [p for p in itertools.product((0, 1), repeat=4) if any(p)]
    assert Fl == hull.facets_of_points(ones)


def test_hull_limit_enforced():
    with pytest.raises(ValueError):
        hull.facets_of_points([tuple(0 for _ in range(9)), tuple(1 for _ in range(9))])


def test_facet_list_to_text_parses_as_formulation():
    for Fl, line, inside, outside in [
        (hull.facets_of_points([(0, 0), (1, 0), (0, 1)]), "ineq -1 -1 >= -1",
         (F(1, 2), F(1, 4)), (1, 1)),
        # an equation of a hull has primitive coefficients
        (hull.facets_of_points([(F(1, 2), 0), (F(1, 2), 1)]), "ineq 1 0 >= 1/2",
         (F(1, 2), F(1, 3)), (1, 0)),
        # a list built by hand keeps the scale of its rows
        (hull.FacetList(2, (((2, 2), 2),)), "ineq 2 2 >= 2", (1, F(1, 2)), (F(1, 4), F(1, 4))),
    ]:
        text = Fl.to_text()
        assert line in text.splitlines()
        Q = pt.from_text(text)
        assert Q.n == 2
        assert lp.contains_point(Q, inside)
        assert not lp.contains_point(Q, outside)


# ---------------------------------------------------------------------------
# property tests of the integer kernel against brute force


def _solve_square(rows):
    """The unique solution of the square system a·x = rhs, or None."""
    n = len(rows)
    m = [list(a) + [rhs] for a, rhs in rows]
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _brute_vertices(rows, n):
    """Feasible solutions of every nonsingular n-subset of rows held tight."""
    out = set()
    for sub in itertools.combinations(rows, n):
        x = _solve_square(sub)
        if x is not None and all(sum(ai * xi for ai, xi in zip(a, x)) >= rhs for a, rhs in rows):
            out.add(x)
    return tuple(sorted(out))


@st.composite
def _boxed_systems(draw):
    """A FacetList inside the unit box, with up to two equations."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-4, 4)
    row = st.tuples(st.lists(ints, min_size=n, max_size=n), ints)
    extra = draw(st.lists(row, max_size=4))
    eqs = draw(st.lists(row, max_size=2))
    rows = pt.cube(n).xspace_rows()
    rows += [(tuple(F(v) for v in a), F(rhs)) for a, rhs in extra]
    return hull.FacetList(n, tuple(rows), tuple((tuple(F(v) for v in a), F(rhs)) for a, rhs in eqs))


@settings(max_examples=120, deadline=None)
@given(_boxed_systems())
def test_vertices_of_hrep_match_brute_force(Fl):
    verts, rays = hull.vertices_of_hrep(Fl)
    assert rays == ()
    assert verts == _brute_vertices(Fl.rows(), Fl.n)
    assert all(isinstance(v, F) for p in verts for v in p)


_coords = st.one_of(st.integers(0, 1), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cube = list(itertools.product((0, 1), repeat=n))
        return draw(st.lists(st.sampled_from(cube), min_size=1, max_size=8, unique=True))
    point = st.tuples(*[_coords] * n)
    return draw(st.lists(point, min_size=1, max_size=6, unique=True))


@settings(max_examples=120, deadline=None)
@given(_point_sets())
def test_facets_of_points_round_trip_to_extreme_points(pts):
    Fl = hull.facets_of_points(pts)
    verts, rays = hull.vertices_of_hrep(Fl)
    assert rays == ()
    pts = sorted({tuple(F(v) for v in p) for p in pts})
    assert set(verts) == set(_extreme(pts))
    for a, rhs in Fl.facets:
        assert all(v.denominator == 1 for v in a) and rhs.denominator == 1
        assert all(sum(ai * xi for ai, xi in zip(a, p)) >= rhs for p in pts)
    for a, rhs in Fl.equations:
        assert all(sum(ai * xi for ai, xi in zip(a, p)) == rhs for p in pts)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_point_sets(), st.data())
def test_facets_of_points_ignore_points_inside_the_hull(pts, data):
    # lift_hrep hulls an OR chain straight from its arms' vertices, some of
    # which may lie inside the hull of the others; the FacetList must not
    # depend on such points
    pts = [tuple(F(v) for v in p) for p in pts]
    inside = []
    for _ in range(data.draw(st.integers(1, 3))):
        p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
        t = data.draw(st.sampled_from((F(1, 2), F(1, 3))))
        inside.append(tuple(t * a + (1 - t) * b for a, b in zip(p, q)))
    assert hull.facets_of_points(pts + inside) == hull.facets_of_points(pts)


# sha256 of the `to_text` of rounds 1 and 2 of each closure chain, as the
# Fraction-based double description wrote them; pins every facet and the
# order of the rows.
PINNED_ROUNDS = {
    "bz4": "30cebfb5ef642b41966377365a3cb2fecbf317fb5a1e729133e3f5c0a857326d",
    "bz5": "256ccf00fbc6d66c53199781b863133c380f7a6c53de70645772220bda28aa3c",
    "covering": "bc7feff514b5be7110b9dd3772b0677544c48f4a816a9ad57354e6838702b49e",
    "n1": "9c45ac49c67c8ff714820c6c535cd4806cf3ecdb571f3a2c3941dea13ab5f563",
    "n2": "b6aa160ddc1034f1907f8900f0b12ef9ed1d1395ea9cabedb89780878c1a4c4d",
}


def test_closure_chain_rounds_are_pinned():
    from formlift import instances as inst
    phis = {"bz4": inst.gen_bz(4).formula, "bz5": inst.gen_bz(5).formula,
            "covering": inst.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).formula,
            "n1": fm.parse("x4 & x2 | !x4 | x3 & !x1", 4),
            "n2": fm.parse("(x1 | !x2) & (x3 | x4) | !x1 & x2 & !x3", 4)}
    for name, phi in phis.items():
        phi = fm.reduce(phi)
        cur = pt.cube(phi.n).xspace_rows()
        texts = []
        for _ in range(2):
            Fl = hull.lift_hrep(phi, cur)
            texts.append(Fl.to_text())
            cur = Fl.rows()
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == PINNED_ROUNDS[name]


# ---------------------------------------------------------------------------
# literal faces from the carried vertex list, against one double description
# per arm


def _reference_points(node, rows, n):
    """The lift's points by the arm route: one `vertices_of_rows` per non-OR node."""
    if node.kind is fm.Kind.OR:
        return set().union(*(_reference_points(arm, rows, n) for arm in node.children))
    out = _reference_rows(node, rows, n)
    if out is None:
        return set()
    points, rays, lin = hull.vertices_of_rows(out, n)
    assert not rays and not lin
    return set(points)


def _reference_rows(node, rows, n):
    if node.kind is fm.Kind.CONST:
        return rows if node.value else None
    if node.kind is fm.Kind.LIT:
        a = tuple(int(i == node.var - 1) for i in range(n))
        v = 0 if node.negated else 1
        return rows + [a + (-v,), tuple(-x for x in a) + (v,)]
    if node.kind is fm.Kind.AND:
        parts = [_reference_rows(c, rows, n) for c in node.children]
        return None if any(p is None for p in parts) else [r for p in parts for r in p]
    points = _reference_points(node, rows, n)
    return _homogeneous_rows(_facets_of(points)) if points else None


def _facets_of(points):
    return hull.facets_of_points([hull._point(g) for g in points])


def _homogeneous_rows(Fl):
    return hull.FacetList(Fl.n, Fl.rows()).hrows()


def _reference_rounds(phi, base_rows, k):
    rows, out = hull.FacetList(phi.n, base_rows).hrows(), []
    for _ in range(k):
        points = _reference_points(phi, rows, phi.n)
        Fl = _facets_of(points) if points else None
        out.append(Fl)
        if Fl is None:
            break
        rows = _homogeneous_rows(Fl)
    return out


def _reduced_formulas(n):
    """Reduced trees over n variables: literals, literal ANDs, ORs inside ANDs,
    constants, and the three shapes of an AND beside an OR (`_and_shapes`)."""
    lits = st.builds(lambda i, neg: fm.lit(i, n, negated=neg), st.integers(1, n), st.booleans())
    consts = st.builds(lambda v: fm.const(v, n), st.booleans())
    leaf = st.integers(0, 7).flatmap(lambda k: consts if k == 0 else lits)
    trees = st.recursive(leaf, lambda kids: st.builds(fm.land, kids, kids)
                         | st.builds(fm.lor, kids, kids), max_leaves=7)
    return trees | _and_shapes(lits, st.builds(fm.lor, lits, lits | trees), st.integers(1, n), n)


def _and_shapes(lits, ors, var, n):
    """An AND of literals with an OR child, nested inside an OR (the OR is
    filtered by the literals' face); a literal AND-ed with two ORs (filtered
    from their meet); and contradictory literals beside an OR (an empty lift)."""
    filtered = st.builds(lambda a, b, o, arm: fm.lor(fm.land(fm.land(a, b), o), arm),
                         lits, lits, ors, lits)
    two_ors = st.builds(lambda a, o1, o2: fm.land(fm.land(a, o1), o2), lits, ors, ors)
    contradiction = st.builds(
        lambda i, o: fm.land(fm.land(fm.lit(i, n), o), fm.lit(i, n, negated=True)), var, ors)
    return filtered | two_ors | contradiction


@st.composite
def _lift_bases(draw, n):
    """The cube's rows, or those of a random boxed x-space base, maybe with equations."""
    if draw(st.booleans()):
        return pt.cube(n).xspace_rows()
    ints = st.integers(-3, 3)
    row = st.tuples(st.lists(ints, min_size=n, max_size=n), ints)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    for a, rhs in draw(st.lists(row, max_size=1)):
        rows += [(a, rhs), ([-v for v in a], -rhs)]
    return pt.from_hrep(n, rows).xspace_rows()


_CUBE4 = pt.cube(4).xspace_rows()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(_reduced_formulas(n), _lift_bases(n))))
@example((fm.parse("x1 & !x2 & (x3 | x4) | x2 & x4", 4), _CUBE4))
@example((fm.parse("x1 & (x2 | x3) & (!x2 | x4)", 4), _CUBE4))
@example((fm.parse("x1 & (x2 | x3) & !x1 | x4", 4), _CUBE4))
@example((fm.parse("x1 & !x2 | x3 & x4", 4), _CUBE4))
@example((fm.parse("1 & (x1 | x2) | x3 & !x4", 4), _CUBE4))
@example((fm.parse("x1 & (x2 & (x3 | x4)) & (!x2 | x4)", 4), _CUBE4))
@example((fm.parse("x1 & (x2 | x3) & (!x2 | !x3)", 4), _CUBE4))
def test_rounds_match_one_double_description_per_arm(case):
    phi, base = case
    want = _reference_rounds(phi, base, 3)
    got = list(itertools.islice(hull._rounds(phi, base), len(want)))
    assert got == want
    for Fl in got:
        if Fl is None:
            continue
        # the int rows are those of the FacetList's own rational rows, which
        # are sorted; they are what `lift --rounds 2` writes
        assert hull.FacetList(Fl.n, Fl.facets, Fl.equations) == Fl
        assert list(Fl.facets) == sorted(Fl.facets)
        assert list(Fl.equations) == sorted(Fl.equations)
        assert Fl.irows() == list(lp._int_rows((lp._pairs(a), rhs) for a, rhs in Fl.rows()))
        verts, rays = hull.vertices_of_hrep(Fl)
        assert rays == () and sorted(map(hull._point, Fl.hvertices)) == list(verts)
    if got[0] is not None:
        assert hull.lift_hrep(phi, got[0]) == (want[1] if len(want) > 1 else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(_reduced_formulas(n), _lift_bases(n))))
def test_a_plain_facet_list_certifies_the_vertices_a_round_carries(case):
    # rounds 1-3 carry the list `lift_hrep` certified; the same rows in a
    # FacetList that carries none give the same list, certified lazily
    phi, base = case
    for Fl in itertools.islice(hull._rounds(phi, base), 3):
        if Fl is None:
            break
        plain = hull.FacetList(Fl.n, Fl.facets, Fl.equations)
        assert "hvertices" not in vars(plain)
        assert set(plain.hvertices) == set(Fl.hvertices)


def test_a_facet_list_outside_the_box_has_no_vertex_list():
    ray = hull.FacetList(2, (((F(1), F(1)), F(1)),))  # x1 + x2 >= 1
    assert ray.hvertices is None
    segment = hull.FacetList(1, (((F(1),), F(0)), ((F(-1),), F(-2))))  # 0 <= x1 <= 2
    assert segment.hvertices is None
    square = hull.FacetList(2, tuple(pt.cube(2).xspace_rows()))
    assert set(square.hvertices) == {(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert hull.FacetList(1, (((F(1),), F(2)), ((F(-1),), F(0)))).hvertices == ()
    with pytest.raises(ValueError, match="hull limit"):
        hull.FacetList(9, ()).hvertices


_CUBE3 = pt.cube(3).xspace_rows()


@pytest.mark.parametrize("call", [
    lambda: hull.lift_hrep(fm.parse("x1 | x2 & !x3", 3), _CUBE3 + [((1, 1, 1, 1), 1)]),
    lambda: hull.lift_hrep(fm.parse("x1 | x2 & !x3", 3), _CUBE3 + [((1, 1), 1)]),
    lambda: hull.vertices_of_hrep(hull.FacetList(3, (((F(1), F(0)), F(0)),))),
    lambda: hull.FacetList(2, (), (((F(1), F(1), F(1)), F(1)),)),
])
def test_a_row_without_n_coefficients_is_refused(call):
    with pytest.raises(ValueError, match=r"row has \d coefficients, expected \d"):
        call()


def _with_a_ray(monkeypatch):
    """Make every `vertices_of_rows` call report a ray."""
    real = hull.vertices_of_rows

    def planted(rows, n):
        points, rays, lin = real(rows, n)
        return points, rays + [(1,) + (0,) * (n - 1)], lin

    monkeypatch.setattr(hull, "vertices_of_rows", planted)


def test_a_dual_cone_with_a_line_is_an_internal_error(monkeypatch):
    # the t column of every row (w, 1) is lost inside `_hull`, so (0, ±1)
    # both lie in the cone its double description is handed
    real_dd, real_hull, depth = hull._dd_pointed, hull._hull, []

    def spied_hull(points, n):
        depth.append(1)
        try:
            return real_hull(points, n)
        finally:
            depth.pop()

    def planted(rows, dim):
        return real_dd([r[:-1] + (0,) for r in rows] if depth else rows, dim)

    monkeypatch.setattr(hull, "_hull", spied_hull)
    monkeypatch.setattr(hull, "_dd_pointed", planted)
    with pytest.raises(lp.InternalError, match="must form a pointed cone"):
        hull.facets_of_points([(0, 0), (1, 0), (0, 1)])


def test_unbounded_and_arms_are_an_internal_error(monkeypatch):
    # an AND with two OR children meets its children's hulls by one double
    # description over the cube's corners, with no check before it
    _with_a_ray(monkeypatch)
    with pytest.raises(lp.InternalError, match="lift arms must stay bounded"):
        hull.lift_hrep(fm.parse("(x1 | x2) & (x3 | x4)", 4), _CUBE4)


def test_a_base_outside_the_box_is_refused():
    phi = fm.parse("x1 | x2", 2)
    stretched = pt.cube(2).xspace_rows()[:-1] + [((F(0), F(-1)), F(-2))]  # x2 <= 2
    with pytest.raises(ValueError, match="inside the unit box"):
        hull.lift_hrep(phi, stretched)
    with pytest.raises(ValueError, match="inside the unit box"):
        hull.lift_hrep(phi, [((F(1), F(0)), F(0))])  # unbounded
    # a FacetList base is held to the same contract
    with pytest.raises(ValueError, match="inside the unit box"):
        hull.lift_hrep(phi, hull.FacetList(2, tuple(stretched)))


def test_a_shifted_facet_is_caught(monkeypatch):
    real = hull._hull

    def shifted(points, n):
        facets, equations = real(points, n)
        h = facets[0]
        return [h[:-1] + (h[-1] - 1,)] + facets[1:], equations
    monkeypatch.setattr(hull, "_hull", shifted)
    with pytest.raises(lp.InternalError, match="cuts off one of its points"):
        hull.lift_hrep(fm.parse("x1 | x2 & !x3", 3), pt.cube(3).xspace_rows())


def test_an_equation_off_a_point_is_caught(monkeypatch):
    real = hull._hull

    def planted(points, n):
        facets, equations = real(points, n)
        return facets, equations + [(1,) * n + (-1,)]  # x1 + ... + xn = 1
    monkeypatch.setattr(hull, "_hull", planted)
    with pytest.raises(lp.InternalError, match="off one of its equations"):
        hull.lift_hrep(fm.parse("x1 | x2", 2), pt.cube(2).xspace_rows())


@pytest.mark.parametrize("text, hulls, enumerations", [
    # the face x1 = 1, x2 = 0 of conv(x3 | x4) is filtered from that chain's
    # points: one hull for the top chain, and one enumeration, the certificate
    ("x1 & !x2 & (x3 | x4) | x2 & x4", 1, 1),
    # two OR children: each chain and the top are hulled, and the meet of
    # the chains' hulls and the certificate are enumerated
    ("x1 & (x2 | x3) & (!x2 | x4)", 3, 2),
    # an AND of fixes alone is filtered from the base's vertex list
    ("x1 & !x2 | x3 & x4", 1, 1),
])
def test_an_and_beside_one_or_is_filtered_not_hulled(monkeypatch, text, hulls, enumerations):
    calls = []
    for name in ("_hull", "vertices_of_rows"):
        real = getattr(hull, name)
        monkeypatch.setattr(hull, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    hull.lift_hrep(fm.parse(text, 4), pt.cube(4).xspace_rows())
    assert (calls.count("_hull"), calls.count("vertices_of_rows")) == (hulls, enumerations)


# the round certificate: the rows' own vertices, enumerated once more by the
# primal double description, must be exactly the round's vertex list

_OR_CHAIN = fm.parse("x1 | x2 & !x3", 3)


def test_a_dropped_facet_is_caught(monkeypatch):
    real = hull._hull

    def dropped(points, n):
        facets, equations = real(points, n)
        return facets[1:], equations
    monkeypatch.setattr(hull, "_hull", dropped)
    with pytest.raises(lp.InternalError, match="rows and its vertex list disagree"):
        hull.lift_hrep(_OR_CHAIN, pt.cube(3).xspace_rows())


def test_a_vertex_dropped_by_the_prune_is_caught(monkeypatch):
    real = hull._vertices
    monkeypatch.setattr(hull, "_vertices", lambda *args: real(*args)[1:])
    with pytest.raises(lp.InternalError, match="rows and its vertex list disagree"):
        hull.lift_hrep(_OR_CHAIN, pt.cube(3).xspace_rows())


def test_a_vertex_lost_by_the_primal_enumeration_is_caught(monkeypatch):
    real, certify = hull.vertices_of_rows, hull.lift_hrep.__code__

    def losing(rows, n):
        points, rays, lin = real(rows, n)
        if sys._getframe(1).f_code is certify:
            points = points[:-1]
        return points, rays, lin

    monkeypatch.setattr(hull, "vertices_of_rows", losing)
    with pytest.raises(lp.InternalError, match="rows and its vertex list disagree"):
        hull.lift_hrep(_OR_CHAIN, pt.cube(3).xspace_rows())


# the base certificate: a base given by rows gets its vertex list from
# `certified_vertices`, which proves each facet and equation of the list's
# hull valid on the rows, by an exact LP where no row states it

# x1 + x2 >= 1 and x1 + x2 + x3 <= 1: the segment from e1 to e2, on which
# x3 = 0 and x1 + x2 = 1 hold although no row states them
_SEGMENT = ([((F(1), F(1), F(0)), F(1)), ((F(-1), F(-1), F(-1)), F(-1))]
            + pt.cube(3).xspace_rows())
# x1 + x2 + x3 >= 2 and x1 + x2 + x3 + x4 <= 2: a triangle with x4 = 0
_TRIANGLE = ([((F(1), F(1), F(1), F(0)), F(2)), ((F(-1),) * 4, F(-2))]
             + pt.cube(4).xspace_rows())


def test_a_base_vertex_lost_by_the_primal_enumeration_is_caught(monkeypatch):
    # without e1 the base has no point with x1 = 1, and x1 | x3 would lift
    # to nothing instead of the single vertex e1
    phi = fm.parse("x1 | x3", 3)
    assert hull.lift_hrep(phi, _SEGMENT).hvertices == ((1, 0, 0, 1),)
    real, calls = hull.vertices_of_rows, []

    def losing(rows, n):
        points, rays, lin = real(rows, n)
        calls.append(n)
        return (points[:-1] if len(calls) == 1 else points), rays, lin

    monkeypatch.setattr(hull, "vertices_of_rows", losing)
    with pytest.raises(lp.InternalError, match="missing from their list"):
        hull.lift_hrep(phi, _SEGMENT)


@pytest.mark.parametrize("base, text", [
    (_SEGMENT, "x1 | x3"),
    (_SEGMENT, "x1 | x2 & !x3"),
    (_TRIANGLE, "x1 & !x2 | x2 & x3 | x4"),
    (_TRIANGLE, "(x1 | x4) & (x2 | x3)"),
])
def test_a_lower_dimensional_base_lifts_like_the_hull_of_its_vertices(monkeypatch, base,
                                                                      text):
    phi = fm.reduce(fm.parse(text, 4 if base is _TRIANGLE else 3))
    points, _, _ = hull.vertices_of_rows(hull.FacetList(phi.n, base).hrows(), phi.n)
    plain = hull.facets_of_points(map(hull._point, points))
    solves, real = [], lp.optimize_rows
    monkeypatch.setattr(lp, "optimize_rows", lambda *a: solves.append(a) or real(*a))
    want = list(itertools.islice(hull._rounds(phi, plain), 2))
    assert not solves
    assert list(itertools.islice(hull._rounds(phi, base), 2)) == want
    assert solves


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_point_sets(), st.data())
def test_the_prune_keeps_exactly_the_extreme_points(pts, data):
    pts = [tuple(F(v) for v in p) for p in pts]
    inside = []
    for _ in range(data.draw(st.integers(0, 3))):
        p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
        t = data.draw(st.sampled_from((F(1, 2), F(1, 3))))
        inside.append(tuple(t * a + (1 - t) * b for a, b in zip(p, q)))
    points = {hull._primitive((*p, 1)) for p in pts + inside}
    facets, equations = hull._hull(points, len(pts[0]))
    kept = hull._vertices(points, facets, equations)
    assert sorted(map(hull._point, kept)) == sorted(set(_extreme(sorted(set(pts)))))
