import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlift import formula as fm
from formlift import hull
from formlift import instances as inst
from formlift import lpsolve as lp
from formlift import polytope as pt
from formlift import verify as vf

F = Fraction


def test_optimize_rows_simple_min():
    # x + y >= 1, x >= 0, y >= 0: min x + 2y is 1 at (1, 0)
    rows = [((1, 1), 1), ((1, 0), 0), ((0, 1), 0)]
    out = lp.optimize_rows(rows, 2, (1, 2), "min")
    assert out.status == "optimal"
    assert out.value == 1
    assert out.x == (1, 0)


def test_optimize_rows_max_and_fractional_data():
    rows = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1, 2)),
            ((F(0), F(1)), F(0)), ((F(0), F(-1)), F(-3))]
    out = lp.optimize_rows(rows, 2, (F(2), F(1, 3)), "max")
    assert out.value == F(2, 1) * F(1, 2) + F(1, 3) * 3


def test_optimize_rows_unbounded():
    out = lp.optimize_rows([((1, 0), 0), ((0, 1), 0)], 2, (1, 1), "max")
    assert out.status == "unbounded"


def test_optimize_rows_infeasible_has_farkas():
    # x >= 1 and -x >= 0 contradict
    rows = [((1,), 1), ((-1,), 0)]
    out = lp.optimize_rows(rows, 1, (0,), "min")
    assert out.status == "infeasible"
    u = out.farkas
    assert all(v >= 0 for v in u)
    assert sum(ui * a[0] for ui, (a, _) in zip(u, rows)) == 0
    assert sum(ui * rhs for ui, (_, rhs) in zip(u, rows)) > 0


def test_duals_certify_value():
    # min x1 + x2 over x1 + x2 >= 2, x1 >= 0, x2 >= 0 (duals checked internally
    # on every solve; here the reported multipliers are inspected directly)
    rows = [((1, 1), 2), ((1, 0), 0), ((0, 1), 0)]
    out = lp.optimize_rows(rows, 2, (1, 1), "min")
    assert out.value == 2
    paid = sum(d * rhs for d, (_, rhs) in zip(out.dual, rows))
    assert paid == out.value


def test_free_variables_allowed():
    # min x subject to x >= -5 only: the variable is free, split internally
    out = lp.optimize_rows([((1,), -5)], 1, (1,), "min")
    assert out.value == -5


def test_random_lps_match_enumeration():
    # random box-bounded systems: compare against brute force over the
    # vertices of the box refined by binding constraints is overkill; instead
    # compare min over random 0/1 integer points to the LP lower bound
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [((tuple(1 if j == i else 0 for j in range(n))), 0) for i in range(n)]
        rows += [((tuple(-1 if j == i else 0 for j in range(n))), -1) for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            pts = [p for p in itertools.product((0, 1), repeat=n)]
            rhs = min(sum(ai * pi for ai, pi in zip(a, p)) for p in pts)
            rows.append((a, rhs))
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        out = lp.optimize_rows(rows, n, c, "min")
        assert out.status == "optimal"
        best_int = min(sum(ci * pi for ci, pi in zip(c, p))
                       for p in itertools.product((0, 1), repeat=n))
        assert out.value <= best_int
        got = sum(ci * xi for ci, xi in zip(c, out.x))
        assert got == out.value


def test_optimize_on_formulation():
    Q = pt.cube(3)
    out = lp.optimize(Q, (1, 1, 1), "min")
    assert out.value == 0
    out = lp.optimize(Q, (1, 1, 1), "max")
    assert out.value == 3
    assert out.x == (1, 1, 1)


def test_optimize_rejects_marker():
    with pytest.raises(ValueError):
        lp.optimize(pt.empty_formulation(2), (1, 1))


def test_optimize_rejects_floats():
    with pytest.raises(TypeError):
        lp.optimize(pt.cube(2), (0.5, 1))


def test_points_and_right_sides_refuse_floats():
    # the int fast path of _ints lets no float through; str and bool still read
    with pytest.raises(TypeError):
        lp.contains_point(pt.cube(2), (0.5, 0))
    with pytest.raises(TypeError):
        lp.proves_valid(pt.cube(2), (1, 0), 0.5)
    assert lp.contains_point(pt.cube(2), ("1/2", True))
    assert not lp.contains_point(pt.cube(2), ("3/2", False))
    assert lp.proves_valid(pt.cube(2), ("1", False), "0")
    half = F(1, 2)
    assert lp._rational(half) is half


def test_witness_and_inside_paths_make_no_fractions(monkeypatch):
    # every emptiness site of bz4 is witnessed and every satisfying 0/1 point
    # proved inside by the point map, all on ints: no projection is built
    def refuse(*args):
        raise AssertionError("_project called")

    monkeypatch.setattr(lp, "_project", refuse)
    phi = inst.gen_bz(4).formula
    ef, rep = pt.lift(phi, pt.cube(4))
    assert rep.emptiness and rep.witnessed == len(rep.emptiness)
    inside = [p for p in itertools.product((0, 1), repeat=4) if phi.evaluate(p)]
    assert len(inside) == 11
    assert all(lp.contains_point(ef, p) for p in inside)


def test_emptiness_certificates():
    out = lp.emptiness(pt.cube(2))
    assert out.status == "optimal"
    assert lp.contains_point(pt.cube(2), out.x)
    empty = pt.from_hrep(1, [((1,), 2)])  # x >= 2 inside [0,1]
    out = lp.emptiness(empty)
    assert out.status == "infeasible"
    assert out.farkas is not None
    assert lp.is_empty(empty)
    assert lp.is_empty(pt.empty_formulation(3))
    assert not lp.is_empty(pt.cube(1))


def test_contains_point():
    Q = pt.from_hrep(2, [((1, 1), 1)])
    assert lp.contains_point(Q, (1, 0))
    assert lp.contains_point(Q, (F(1, 2), F(1, 2)))
    assert not lp.contains_point(Q, (0, 0))
    assert not lp.contains_point(pt.empty_formulation(2), (0, 0))


def test_proves_valid_refuses_a_wrong_length():
    # a truncated inequality on the cube, a long one on the cube, and a short
    # one on a lift: each is refused before any dual map is asked
    ef, _ = pt.lift(fm.parse("x1 | x2", 2), pt.cube(2))
    for Q, a in ((pt.cube(2), (1,)), (pt.cube(2), (1, 1, 1)), (ef, (1,))):
        with pytest.raises(ValueError, match="inequality length"):
            lp.proves_valid(Q, a, 0)


def test_membership_through_projection():
    # lifted formulation of conv({(0,0),(1,1)}) via a disjunction
    phi = fm.parse("x1 & x2 | !x1 & !x2", 2)
    ef, _ = pt.lift(fm.reduce(phi), pt.cube(2))
    assert lp.contains_point(ef, (F(1, 2), F(1, 2)))
    assert not lp.contains_point(ef, (1, 0))
    out = lp.optimize(ef, (1, -1), "max")
    assert out.value == 0


def test_degenerate_rows_and_redundancy():
    # duplicated and implied rows must not break termination (Bland's rule)
    rows = [((1, 1), 1), ((1, 1), 1), ((2, 2), 2), ((1, 0), 0), ((0, 1), 0)]
    out = lp.optimize_rows(rows, 2, (3, 5), "min")
    assert out.value == 3


def test_equation_like_pairs():
    # x1 = 1/3 expressed as two inequalities
    rows = [((1,), F(1, 3)), ((-1,), F(-1, 3))]
    out = lp.optimize_rows(rows, 1, (5,), "min")
    assert out.value == F(5, 3)
    assert out.x == (F(1, 3),)


# Coefficients whose denominators differ from row to row, so the tableau rows
# start over different denominators and pivots mix them.
UNLIKE = (F(1, 3), F(2, 7), F(-5, 4), F(-3, 2), F(5, 6), F(-2, 9), F(7, 5), F(0))


def _assert_certified(rows, c, out, flip=1):
    # the dual certifies the minimized objective flip·c, whose value is flip·value
    n = len(c)
    if out.status == "optimal":
        u = out.dual
        assert all(v >= 0 for v in u)
        assert all(sum(ui * a[j] for ui, (a, _) in zip(u, rows)) == flip * c[j]
                   for j in range(n))
        assert sum(ui * rhs for ui, (_, rhs) in zip(u, rows)) == flip * out.value
    else:
        assert out.status == "infeasible"
        u = out.farkas
        assert all(v >= 0 for v in u)
        assert all(sum(ui * a[j] for ui, (a, _) in zip(u, rows)) == 0 for j in range(n))
        assert sum(ui * rhs for ui, (_, rhs) in zip(u, rows)) > 0


def _vertex_minimum(rows, n, c):
    verts, rays = hull.vertices_of_hrep(hull.FacetList(n, tuple(rows)))
    assert rays == ()
    return verts, min((sum(ci * vi for ci, vi in zip(c, v)) for v in verts), default=None)


def test_unlike_denominators_match_vertex_enumeration():
    rng = random.Random(1711)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = []
        for i in range(n):
            e = tuple(F(1) if j == i else F(0) for j in range(n))
            rows.append((e, rng.choice((F(-5, 4), F(-1, 3), F(0)))))
            rows.append((tuple(-v for v in e), -rng.choice((F(2, 7), F(7, 5), F(3)))))
        for _ in range(rng.randint(1, 4)):
            rows.append((tuple(rng.choice(UNLIKE) for _ in range(n)), rng.choice(UNLIKE)))
        if rng.random() < 0.3:
            a, b = rows[-1]
            rows.append((tuple(-v for v in a), -b))  # turn the last row into an equation
        rng.shuffle(rows)
        c = tuple(rng.choice(UNLIKE) for _ in range(n))
        out = lp.optimize_rows(rows, n, c, "min")
        verts, best = _vertex_minimum(rows, n, c)
        _assert_certified(rows, c, out)
        if best is None:
            assert out.status == "infeasible"
        else:
            assert out.status == "optimal"
            assert out.value == best
            assert out.x in verts
        seen.add(out.status)
    assert seen == {"optimal", "infeasible"}


def test_redundant_equation_with_fractional_objective():
    # (1/3)x1 + (2/7)x2 = 1/2 stated twice, the second time doubled: phase
    # one ends with an artificial basic at level zero, which is pivoted out
    # on a negative entry
    rows = [((F(1, 3), F(2, 7)), F(1, 2)), ((F(-1, 3), F(-2, 7)), F(-1, 2)),
            ((F(2, 3), F(4, 7)), F(1)), ((F(-2, 3), F(-4, 7)), F(-1)),
            ((F(1), F(0)), F(-5, 4)), ((F(0), F(1)), F(-5, 4)),
            ((F(-1), F(0)), F(-3)), ((F(0), F(-1)), F(-3))]
    for sense, c in (("min", (F(-5, 4), F(1, 3))), ("max", (F(2, 7), F(-1, 3)))):
        out = lp.optimize_rows(rows, 2, c, sense)
        flip = -1 if sense == "max" else 1
        verts, best = _vertex_minimum(rows, 2, tuple(flip * v for v in c))
        assert out.status == "optimal"
        assert out.value == flip * best
        assert out.x in verts
        _assert_certified(rows, c, out, flip)
    assert lp.optimize_rows(rows, 2, (F(-5, 4), F(1, 3)), "min").value == F(-305, 84)


def test_unlike_denominators_infeasible_farkas():
    # x1 >= 1/3 + (2/7)x2 and (5/4)x1 <= 1/3 - (2/9)x2 over x2 >= 0 contradict
    rows = [((F(1), F(-2, 7)), F(1, 3)), ((F(-5, 4), F(-2, 9)), F(-1, 3)),
            ((F(0), F(1)), F(0))]
    out = lp.optimize_rows(rows, 2, (F(1, 3), F(0)), "min")
    _assert_certified(rows, (F(1, 3), F(0)), out)
    assert _vertex_minimum(rows, 2, (F(1, 3), F(0)))[0] == ()


# The certificate checks bring rows over 42, 12 and 28 (and the solution's own
# denominators) to common denominators; each tampered certificate must be
# refused, and each genuine one accepted.
TAMPER_ROWS = [((F(1, 3), F(2, 7)), F(1, 2)), ((F(-5, 4), F(1, 3)), F(-2)),
               ((F(2, 7), F(-5, 4)), F(-3)), ((F(1), F(0)), F(0)),
               ((F(0), F(-1, 3)), F(-1))]
# x0 >= 1/3 + (2/7)x1 and (5/4)x0 <= 1/3 - (2/9)x1 over x1 >= 0 contradict; the
# last two rows state (1/3)x0 + (2/7)x1 = 1/2 twice, the second time doubled
FARKAS_ROWS = [((F(1), F(-2, 7)), F(1, 3)), ((F(-5, 4), F(-2, 9)), F(-1, 3)),
               ((F(0), F(1)), F(0)), ((F(1, 3), F(2, 7)), F(1, 2)),
               ((F(-2, 3), F(-4, 7)), F(-1))]


def _int_rows(rows):
    return lp._int_rows([(tuple((j, v) for j, v in enumerate(a) if v), rhs)
                         for a, rhs in rows])


def _bumped(u, k, by):
    return tuple(v + by if i == k else v for i, v in enumerate(u))


@pytest.mark.parametrize("c", [(F(1), F(1)), (F(1, 3), F(1, 4)), (F(-1, 4), F(1, 7)),
                               (F(2, 7), F(-1, 3))])
def test_check_optimal_refuses_tampered_certificates(c):
    out = lp.optimize_rows(TAMPER_ROWS, 2, c)
    irows = _int_rows(TAMPER_ROWS)
    obj = lp._objective(tuple(enumerate(c)))
    lp._check_optimal(irows, obj, out.value, *lp._common(out.x), *lp._common(out.dual))
    k = next(i for i, v in enumerate(out.dual) if v)
    # row 0 violated by exactly 1/7, moving x1 alone
    (a0, a1), b = TAMPER_ROWS[0]
    x = (out.x[0], out.x[1] - (a0 * out.x[0] + a1 * out.x[1] - b + F(1, 7)) / a1)
    assert a0 * x[0] + a1 * x[1] == b - F(1, 7)
    tampered = [
        ("violates a constraint", (out.value, x, out.dual)),
        ("negative dual", (out.value, out.x, _bumped(out.dual, k, -2 * out.dual[k]))),
        ("dual certificate", (out.value, out.x, _bumped(out.dual, k, F(1, 7)))),
        ("dual certificate", (out.value, out.x, _bumped(out.dual, len(TAMPER_ROWS) - 1, F(1, 7)))),
        ("objective value", (out.value + F(1, 7), out.x, out.dual)),
    ]
    for why, (value, x, dual) in tampered:
        with pytest.raises(lp.InternalError, match=why):
            lp._check_optimal(irows, obj, value, *lp._common(x), *lp._common(dual))


def test_check_farkas_refuses_tampered_certificates():
    out = lp.optimize_rows(FARKAS_ROWS, 2, (F(0), F(0)))
    irows = _int_rows(FARKAS_ROWS)
    lp._check_farkas(irows, *lp._common(out.farkas))
    assert all(out.farkas[:2])
    for u in (_bumped(out.farkas, 0, F(1, 7)), _bumped(out.farkas, 1, F(1, 7)),
              _bumped(out.farkas, 4, F(1, 7))):
        with pytest.raises(lp.InternalError, match="does not refute"):
            lp._check_farkas(irows, *lp._common(u))  # farkas·A is no longer 0
    for u in ((F(0),) * 5, (F(0), F(0), F(0), F(1), F(1, 2))):
        with pytest.raises(lp.InternalError, match="does not refute"):
            lp._check_farkas(irows, *lp._common(u))  # farkas·A = 0 but farkas·rhs = 0
    with pytest.raises(lp.InternalError, match="negative Farkas"):
        lp._check_farkas(irows, *lp._common(_bumped(out.farkas, 4, F(-1, 7))))


def test_solves_run_their_own_certificate_check(monkeypatch):
    # one more unit on the first nonzero multiplier numerator must stop the
    # solve itself, on its dual and on its Farkas vector alike
    real = lp._multipliers

    def tampered(*args):
        U, E = real(*args)
        k = next(i for i, v in enumerate(U) if v)
        U[k] += 1
        return U, E

    monkeypatch.setattr(lp, "_multipliers", tampered)
    with pytest.raises(lp.InternalError, match="dual certificate does not prove optimality"):
        lp.optimize_rows(TAMPER_ROWS, 2, (1, 1))
    with pytest.raises(lp.InternalError, match="does not refute"):
        lp.optimize_rows(FARKAS_ROWS, 2, (0, 0))


def test_outcomes_hold_fractions_only():
    # the solver computes on ints; every entry it hands back is a Fraction,
    # so that a caller's division stays exact
    ef, _ = pt.lift(inst.gen_bz(4).formula, pt.cube(4))
    c = (1, -1, 1, -1)
    assert lp._start(ef, c) is not None
    outs = [lp.optimize_rows(TAMPER_ROWS, 2, (1, 1)), lp.optimize(pt.cube(3), (1, -1, 0), "max"),
            lp.optimize(ef, c), lp.optimize_rows(FARKAS_ROWS, 2, (0, 0)),
            lp.emptiness(pt.with_xspace_rows(ef, [((1, 1, 1, 1), 5)]))]
    assert [o.status for o in outs] == ["optimal"] * 3 + ["infeasible"] * 2
    for o in outs:
        for vec in (o.x, o.y, o.dual, o.farkas):
            assert all(type(v) is Fraction for v in vec or ())
        assert o.value is None or type(o.value) is Fraction


# Sign rows c·y_j >= 0 with c > 0 become column bounds inside the solver; the
# first such row of a variable is presolved, later ones stay tableau rows.
# Negative coefficients and nonzero right-hand sides are ordinary rows.
SIGN_COEFS = (F(1), F(2), F(1, 3), F(5, 2), F(-1))


def _dot(a, x):
    return sum((ai * xi for ai, xi in zip(a, x)), F(0))


@st.composite
def _sign_row_systems(draw):
    n = draw(st.integers(1, 3))
    rows = []
    for j in range(n):
        for _ in range(draw(st.integers(0, 2))):  # none: free; two: duplicated
            e = [F(0)] * n
            e[j] = draw(st.sampled_from(SIGN_COEFS))
            rows.append((tuple(e), F(0)))
    for _ in range(draw(st.integers(0, 4))):
        rows.append((tuple(draw(st.sampled_from(UNLIKE)) for _ in range(n)),
                     draw(st.sampled_from(UNLIKE))))
    if draw(st.booleans()):
        for j in range(n):
            rows.append((tuple(F(-1) if i == j else F(0) for i in range(n)), F(-3)))
    rows = draw(st.permutations(rows))
    # the same rows as sparse pairs, where a column may come as two pairs
    # that add up to its coefficient, e.g. ((0, 1/2), (0, 1/3)) for 5/6
    sparse = []
    for a, rhs in rows:
        pairs = []
        for j, v in enumerate(a):
            if draw(st.booleans()):
                part = draw(st.sampled_from(UNLIKE))
                pairs += [(j, part), (j, v - part)]
            elif v:
                pairs.append((j, v))
        sparse.append((tuple(draw(st.permutations(pairs))), rhs))
    c = tuple(draw(st.sampled_from(UNLIKE)) for _ in range(n))
    return n, rows, tuple(sparse), c


@settings(max_examples=200, deadline=None)
@given(_sign_row_systems(), st.sampled_from(("min", "max")))
def test_presolved_sign_rows_match_vertex_enumeration(system, sense):
    n, rows, sparse, c = system
    flip = -1 if sense == "max" else 1
    out = lp.optimize_rows(rows, n, c, sense)
    # the sparse rows, repeated columns included, must give the same solve
    proj = tuple((((j, 1),), 0, 1) for j in range(n))
    Q = pt.ExtendedFormulation(n, n, lp._int_rows(sparse), proj)
    if out.status == "unbounded":
        with pytest.raises(lp.UnboundedError):
            lp.optimize(Q, c, sense)
    else:
        again = lp.optimize(Q, c, sense)
        assert (again.status, again.value, again.x, again.dual, again.farkas) == \
            (out.status, out.value, out.x, out.dual, out.farkas)
    verts, rays = hull.vertices_of_hrep(hull.FacetList(n, tuple(rows)))
    if not verts:
        assert out.status == "infeasible"
    elif any(flip * _dot(c, r) < 0 for r in rays):
        assert out.status == "unbounded"
    else:
        assert out.status == "optimal"
        assert out.value == flip * min(flip * _dot(c, v) for v in verts)
        assert all(_dot(a, out.x) >= rhs for a, rhs in rows)
        assert _dot(c, out.x) == out.value
    if out.status != "unbounded":
        _assert_certified(rows, c, out, flip)


def test_presolved_sign_row_in_farkas_vector():
    # 2·y0 >= 0 and -y0 >= 1 contradict only together
    rows = [((F(2),), F(0)), ((F(-1),), F(1))]
    out = lp.optimize_rows(rows, 1, (F(0),), "min")
    _assert_certified(rows, (F(0),), out)
    assert out.farkas[0] > 0


def test_presolved_sign_row_unbounded():
    # y0 >= 0 and y0 + y1 >= 1 with y1 free: y0 grows without limit
    rows = [((F(1), F(0)), F(0)), ((F(1), F(1)), F(1))]
    assert lp.optimize_rows(rows, 2, (F(1), F(0)), "max").status == "unbounded"
    assert lp.optimize_rows(rows, 2, (F(1), F(1)), "min").value == 1


def test_presolved_sign_row_carries_dual():
    # min 3·y0 + y1 at (0, 1): only 2·y0 >= 0 and y0 + y1 >= 1 are tight,
    # and their multipliers 1 and 1 are the unique dual
    rows = [((F(2), F(0)), F(0)), ((F(0), F(1)), F(0)),
            ((F(1), F(1)), F(1)), ((F(0), F(-1)), F(-3))]
    out = lp.optimize_rows(rows, 2, (F(3), F(1)), "min")
    assert (out.value, out.x) == (1, (0, 1))
    assert out.dual == (1, 0, 1, 0)
    _assert_certified(rows, (F(3), F(1)), out)


# bz5 lifted once over the cube and read back from its .ef text: 280 rows over
# 115 lifted variables, 100 of them sign rows.  Optima recorded when every
# variable was still split into two columns.
BZ5_OPTIMA = (
    ("min", (-2, -3, 3, -3, 2), -8), ("max", (3, 1, 2, 0, 3), 9),
    ("min", (0, -3, -1, 1, -1), -5), ("max", (-3, 2, -2, -1, 3), 5),
    ("min", (3, -1, 0, -1, 1), -2), ("max", (0, -3, -3, -1, 1), 1),
    ("min", (-1, -3, 2, -3, 3), -7), ("max", (-3, 3, -2, 3, 2), 8),
    ("min", (-1, -3, -1, 1, -3), -8), ("min", (-2, -2, -3, 2, -1), -8),
)
BZ5_MEMBERS = (
    ((1, F(1, 2), F(1, 2), 1, 0), True),
    ((F(3, 4), F(1, 4), 0, F(1, 4), 0), False),
    ((F(1, 2), F(3, 4), F(1, 4), F(3, 4), 1), True),
    ((0, 1, F(1, 4), 0, F(1, 4)), False),
    ((F(3, 4), F(1, 2), F(1, 4), F(3, 4), F(1, 4)), True),
)


def test_bz5_round_one_pins():
    ef, _ = pt.lift(inst.gen_bz(5).formula, pt.cube(5))
    ef = pt.from_text(pt.to_text(ef))
    assert len(ef.rows) == 280 and ef.ydim == 115
    for sense, c, want in BZ5_OPTIMA:
        assert lp.optimize(ef, c, sense).value == want
    for x, inside in BZ5_MEMBERS:
        assert lp.contains_point(ef, x) == inside


@st.composite
def _boxed_dense_systems(draw):
    n = draw(st.integers(1, 5))
    rows = [(tuple(draw(st.sampled_from(UNLIKE)) for _ in range(n)), draw(st.sampled_from(UNLIKE)))
            for _ in range(draw(st.integers(0, 4)))]
    c = tuple(draw(st.sampled_from(UNLIKE)) for _ in range(n))
    return n, rows, c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_boxed_dense_systems(), st.sampled_from(("min", "max")))
def test_xspace_formulations_solve_like_dense_rows(system, sense):
    # optimize and emptiness on an x-space formulation take the objective as
    # it is and report y as x; their answers must be optimize_rows' answers
    # on the same rows, in the same order
    n, rows, c = system
    Q = pt.from_hrep(n, rows)
    assert Q.is_hrep
    dense = Q.xspace_rows()

    def fields(out):
        return out.status, out.value, out.x, out.dual, out.farkas

    assert fields(lp.emptiness(Q)) == fields(lp.optimize_rows(dense, n, (0,) * n))
    out = lp.optimize(Q, c, sense)
    assert fields(out) == fields(lp.optimize_rows(dense, n, c, sense))
    assert out.y == out.x


def _mixed_solves():
    """A seeded mixed set of answers: dense solves that end optimal,
    infeasible and unbounded, then optimize, emptiness and contains_point on
    4-variable lifted formulations."""
    rng = random.Random(4242)
    out = []
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = [(tuple(rng.choice(UNLIKE) for _ in range(n)), rng.choice(UNLIKE))
                for _ in range(rng.randint(1, 5))]
        c = tuple(rng.choice(UNLIKE) for _ in range(n))
        out.append(lp.optimize_rows(rows, n, c, rng.choice(("min", "max"))))
    assert {o.status for o in out} == {"optimal", "infeasible", "unbounded"}
    quarters = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for seed in range(8):
        phi = vf.random_reduced_formula(4, 6, neg_density=0.4, seed=seed)
        cut = (tuple(rng.randint(-2, 2) for _ in range(4)), rng.randint(-2, 1))
        ef, _ = pt.lift(phi, pt.from_hrep(4, [cut]))
        if ef.empty_marker:
            continue
        for sense in ("min", "max", "min"):
            out.append(lp.optimize(ef, tuple(rng.choice(UNLIKE) for _ in range(4)), sense))
        out.append(lp.emptiness(ef))
        out.append(lp.emptiness(pt.with_xspace_rows(ef, [((1, 1, 1, 1), F(9, 2))])))
        for _ in range(4):
            x = tuple(rng.choice(quarters) for _ in range(4))
            out.append((x, lp.contains_point(ef, x)))
    return out


def test_mixed_solves_are_pinned():
    # sha256 of the reprs: every value, point, dual and Farkas vector must
    # come out identical, types included.  The full reprs were recorded when
    # lifted solves began at a 0/1 witness, which moves optimal points and
    # duals among equal optima; the statuses, values, Farkas vectors and
    # membership answers are pinned apart and were recorded on the
    # Fraction-row solver.
    out = _mixed_solves()
    got = hashlib.sha256("\n".join(map(repr, out)).encode()).hexdigest()
    assert got == "7701034361c39e24f86b6a43611addb69b0e83a2b5b0c7bdcc895d49980c9d12"
    answers = [repr((o.status, o.value, o.farkas)) if isinstance(o, lp.LpOutcome) else repr(o)
               for o in out]
    got = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert got == "ebfac0f4e82565acf0092a05fd3ed1401b78ccc05b3eeb2182a66e12c3389e32"


def _lifted_cases():
    """Lifts of seeded random formulas over the cube, n from 2 to 5, with a
    seeded objective each."""
    rng = random.Random(77)
    for seed in range(24):
        n = 2 + seed % 4
        phi = vf.random_reduced_formula(n, rng.randint(3, 7), neg_density=0.4, seed=seed)
        ef, _ = pt.lift(phi, pt.cube(n))
        if not ef.empty_marker and not ef.is_hrep:
            yield ef, tuple(rng.choice(UNLIKE) for _ in range(n))


def test_started_solves_agree_with_cold_solves():
    # the witness start, and a start that violates rows, reach the cold
    # solve's value, and every answer passes the optimality check on the
    # unshifted rows
    for ef, c in _lifted_cases():
        obj = lp._objective(lp._y_objective(ef, c)[0])
        start = lp._start(ef, c)
        assert start is not None and lp._holds(ef.rows, start)
        results = [lp._solve(ef.rows, ef.ydim, obj, y0)
                   for y0 in (None, start, (1,) * ef.ydim)]
        assert not lp._holds(ef.rows, (1,) * ef.ydim)
        for status, value, y, dual, _ in results:
            assert status == "optimal" and value == results[0][1]
            lp._check_optimal(ef.rows, obj, value, *y, *dual)


def test_feasible_start_skips_phase_one(monkeypatch):
    runs = []
    real = lp._run

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_run", counting)
    cold = []
    for ef, c in _lifted_cases():
        obj = lp._objective(lp._y_objective(ef, c)[0])
        runs.clear()
        lp._solve(ef.rows, ef.ydim, obj)
        cold.append(len(runs))
        runs.clear()
        lp._solve(ef.rows, ef.ydim, obj, lp._start(ef, c))
        assert len(runs) == 1
    assert cold.count(2) > len(cold) // 2


def test_wrong_witness_lines_cost_time_not_answers():
    # the wit lines of a bz4 lift get, in turn, a y that violates rows (all
    # ones) and the y of another point, and a point outside the set gets one
    # too: optimize still finds each optimum from that start, and member
    # still answers from the rows
    ef, _ = pt.lift(inst.gen_bz(4).formula, pt.cube(4))
    text = pt.to_text(ef)
    lines = text.splitlines()
    wit = [i for i, line in enumerate(lines) if line.startswith("wit ")]
    assert len(wit) == len(ef.witnesses) > 1
    ones = "".join(f" {j}" for j in range(ef.ydim))
    for k, (i, j) in enumerate(zip(wit, wit[1:] + wit[:1])):
        lines[i] = lines[i][:8] + (lines[j][8:] if k % 2 else ones)
    inside = {p for p, _ in ef.witnesses}
    outside = next(p for p in itertools.product((0, 1), repeat=4) if p not in inside)
    lines.append("wit " + "".join(map(str, outside)) + lines[wit[0]][8:])
    bad = pt.from_text("\n".join(lines) + "\n")
    clean = pt.from_text(text)
    violated = 0
    for p, _ in ef.witnesses:
        c = tuple(-1 if v else 1 for v in p)  # p is the only minimizer of c·p
        start = lp._start(bad, c)
        assert start != lp._start(clean, c)
        violated += not lp._holds(bad.rows, start)
        assert lp.optimize(bad, c).value == lp.optimize(clean, c).value
    assert violated == (len(wit) + 1) // 2
    for p in itertools.product((0, 1), repeat=4):
        assert lp.contains_point(bad, p) == (p in inside)
