import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlift import formula as fm
from formlift import hull
from formlift import instances
from formlift import lpsolve as lp
from formlift import measures as ms
from formlift import polytope as pt
from formlift import verify as vf

F = Fraction


def test_to_standard_form_monotone():
    q = ms.to_standard_form((1, 0, 2), 2)
    assert q.neg == ()
    assert q.coeffs == (F(1), F(0), F(2))
    assert q.delta == 2
    assert q.support == (1, 3)


def test_to_standard_form_flips_negatives():
    # -x1 + x2 >= 0 becomes (1-x1) + x2 >= 1
    q = ms.to_standard_form((-1, 1), 0)
    assert q.neg == (1,)
    assert q.coeffs == (F(1), F(1))
    assert q.delta == 1


def test_to_standard_form_trivial_is_none():
    # delta = 0 is still representable; only negative delta is rejected
    assert ms.to_standard_form((1, 1), 0).delta == 0
    assert ms.to_standard_form((-1,), -2) is None


def test_standard_form_lhs_and_row():
    q = ms.to_standard_form((-2, 3), 1)
    for p in itertools.product((0, 1), repeat=2):
        direct = 2 * (1 - p[0]) + 3 * p[1]
        assert q.lhs(p) == direct


def test_pitch_and_notch_basic():
    q = ms.to_standard_form((1, 0, 0, 0, 1), 1)
    assert ms.pitch_of(q) == 1
    assert ms.notch_of(q) == 4
    q2 = ms.to_standard_form((1, 1, 1), 2)
    assert ms.pitch_of(q2) == 2
    assert ms.notch_of(q2) == 2
    q3 = ms.to_standard_form((3, 1, 1), 2)
    assert ms.pitch_of(q3) == 2  # the two smallest coefficients reach 2
    assert ms.notch_of(q3) == 2
    q4 = ms.to_standard_form((3, 0, 0), 2)
    assert ms.pitch_of(q4) == 1  # zeros are skipped for pitch
    assert ms.notch_of(q4) == 3  # but counted for notch


def test_pitch_orders_coefficients_ascending():
    # smallest nonzero coefficients first: 1 + 1 < 3 forces pitch 3
    q = ms.to_standard_form((1, 1, 3), 3)
    assert ms.pitch_of(q) == 3


def test_pitch_error_when_unreachable():
    q = ms.StandardFormInequality(2, (), (F(1), F(1)), F(3))
    with pytest.raises(ValueError):
        ms.pitch_of(q)
    with pytest.raises(ValueError):
        ms.notch_of(q)


def test_pitch_zero_when_delta_zero():
    q = ms.StandardFormInequality(2, (), (F(1), F(1)), F(0))
    assert ms.pitch_of(q) == 0 and ms.notch_of(q) == 0


def test_pitch_at_most_notch_random():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        rhs = rng.randint(-2, 4)
        q = ms.to_standard_form(a, rhs)
        if q is None:
            continue
        try:
            p = ms.pitch_of(q)
        except ValueError:
            with pytest.raises(ValueError):
                ms.notch_of(q)
            continue
        assert p <= ms.notch_of(q)


def test_notch_of_set_values():
    full = fm.point_set(2, itertools.product((0, 1), repeat=2))
    assert ms.notch_of_set(full) == 0
    two_ones = fm.point_set(3, [p for p in itertools.product((0, 1), repeat=3)
                                if sum(p) >= 2])
    assert ms.notch_of_set(two_ones) == 2
    corner = fm.point_set(3, [(1, 1, 1)])
    assert ms.notch_of_set(corner) == 3
    for n in range(1, 5):
        e = fm.point_set(n, [tuple(1 for _ in range(n))])
        assert ms.notch_of_set(e) == n


def test_notch_of_set_empty_errors():
    with pytest.raises(ValueError):
        ms.notch_of_set(fm.point_set(2, []))


def test_closure_query_validation():
    S = fm.point_set(2, [(1, 1)])
    R = pt.cube(2)
    with pytest.raises(ValueError):
        ms.closure_violation(ms.ClosureQuery("width", 1, S, R))
    with pytest.raises(ValueError):
        ms.closure_violation(ms.ClosureQuery("pitch", 0, S, R))
    big = fm.point_set(9, [tuple(1 for _ in range(9))])
    with pytest.raises(ValueError):
        ms.closure_violation(ms.ClosureQuery("pitch", 1, big, pt.cube(9)))


def test_closure_finds_cube_violation():
    # vertex covers of the triangle: x1 + x2 >= 1 is valid with pitch 1 but
    # the cube contains the origin
    tri = instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    q = ms.ClosureQuery("pitch", 1, tri.points, pt.cube(3))
    viol = ms.closure_violation(q)
    assert viol is not None
    std = viol.standard()
    assert ms.pitch_of(std) == 1
    assert std.is_valid_on(tri.points.points)
    assert std.lhs(viol.point) < std.delta
    assert lp.contains_point(pt.cube(3), viol.point)


def test_closure_closed_after_one_round():
    tri = instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    R = pt.iterate_lift(tri.formula, pt.cube(3), 1)
    rep = ms.verify_closure(ms.ClosureQuery("pitch", 1, tri.points, R))
    assert rep.closed
    assert rep.priced > 0
    assert "violation=none" in rep.line()


def test_closure_empty_relaxation_closed():
    S = fm.point_set(2, [(1, 1)])
    rep = ms.verify_closure(ms.ClosureQuery("pitch", 1, S, pt.empty_formulation(2)))
    assert rep.closed and rep.examined == 0


def test_closure_notch_mode_uses_sign_patterns():
    # S = even-weight points of the 2-cube: x1 + x2 >= 1 fails but the
    # complemented row (1-x1) + (1-x2) >= 1 also fails; both are invalid on S,
    # while |x1 - x2| style rows are valid with notch 2
    S = fm.point_set(2, [(0, 0), (1, 1)])
    viol = ms.closure_violation(ms.ClosureQuery("notch", 2, S, pt.cube(2)))
    assert viol is not None
    std = viol.standard()
    assert ms.notch_of(std) <= 2
    assert std.is_valid_on(S.points)


def test_closure_notch_closed_on_hull():
    S = fm.point_set(2, [(0, 0), (1, 1)])
    phi = fm.reduce(fm.minterm_dnf(S))
    R = pt.iterate_lift(phi, pt.cube(2), 2)
    rep = ms.verify_closure(ms.ClosureQuery("notch", 2, S, R))
    assert rep.closed


def test_violation_describe_is_exact():
    tri = instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    viol = ms.closure_violation(ms.ClosureQuery("pitch", 1, tri.points, pt.cube(3)))
    text = viol.describe()
    assert ">=" in text and "violated at" in text


@st.composite
def _cone_inputs(draw):
    dim = draw(st.integers(1, 5))
    level = draw(st.integers(1, 3))
    dvecs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * dim), max_size=6, unique=True))
    return dim, level, sorted(dvecs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cone_inputs())
def test_int_cone_vertices_match_fraction_rows(case):
    # the cone's rows go to the double description as ints; the same rows as
    # a FacetList of Fractions must give the same vertices, in the same order
    dim, level, dvecs = case
    unit = [tuple(F(int(j == i)) for j in range(dim)) for i in range(dim)]
    rows = [(e, F(0)) for e in unit]
    rows += [(tuple(F(int(j in J)) for j in range(dim)), F(1))
             for J in itertools.combinations(range(dim), min(level, dim))]
    rows += [(tuple(map(F, d)), F(1)) for d in dvecs]
    verts, _ = hull.vertices_of_hrep(hull.FacetList(dim, tuple(rows)))
    assert ms._cone_vertices(dim, level, dvecs) == list(verts)


def test_level_one_cone_is_its_all_ones_vertex():
    # at level 1 the cone's only vertex is all ones; the double description
    # of the same rows must agree for any nonzero 0/1 validity rows
    rng = random.Random(11)
    for dim in range(1, 6):
        for _ in range(10):
            dvecs = sorted({tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(4)}
                           - {(0,) * dim})
            rows = [tuple(int(j == i) for j in range(dim)) + (0,) for i in range(dim)]
            rows += [tuple(int(j == i) for j in range(dim)) + (-1,) for i in range(dim)]
            rows += [d + (-1,) for d in dvecs]
            points, _rays, _lineality = hull.vertices_of_rows(rows, dim)
            want = [tuple(F(v, g[dim]) for v in g[:dim]) for g in points]
            assert ms._cone_vertices(dim, 1, dvecs) == want == [(F(1),) * dim]


def _closure_lines():
    """Report lines of both modes at levels 1 and 2 against three relaxations
    of each formula: the cube, round 1 as hull facets and round 1 as an
    extended formulation."""
    phis = [instances.gen_bz(4).formula, instances.gen_bz(5).formula,
            instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).formula]
    phis += [vf.random_reduced_formula(4, 6, neg_density=0.3, seed=s) for s in range(20)]
    for phi in phis:
        phi = fm.reduce(phi)
        S = fm.enumerate_set(phi)
        if not S.points:
            continue
        n = phi.n
        F = hull.lift_hrep(phi, pt.cube(n).xspace_rows())
        for R in (pt.cube(n), pt.from_hrep(n, F.rows()), pt.lift(phi, pt.cube(n))[0]):
            for mode in ("pitch", "notch"):
                for level in (1, 2):
                    yield ms.verify_closure(ms.ClosureQuery(mode, level, S, R)).line()


def test_closure_lines_are_pinned():
    # sha256 over 240 report lines, 74 of them violations whose LP point is
    # printed; recorded before the x-space LP and integer cone shortcuts
    lines = list(_closure_lines())
    assert len(lines) == 240
    assert sum("violation=none" not in line for line in lines) == 74
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == "da41708d76b3004481002564763b1cbe68eb5d95e2b706047be89348a1a65698"
