"""Cross-route and witness properties of the lift.

The extended-formulation route (`polytope.lift`) and the hull route
(`hull.lift_hrep`) must describe sets with the same 0/1 points, namely the
satisfying points inside the base.  The lift's point map must propose a
verifying lifted point for exactly those points: a broken map would
otherwise hide behind the LP fallback of `contains_point`.  Every emptiness
verdict a witness gives must be the LP's verdict at that site.  Likewise
every multiplier vector the lift's dual map composes must verify exactly,
and on the cube it must decide every outside point and every cube row.
"""

import dataclasses
import itertools
import time
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlift import hull
from formlift import instances
from formlift import formula as fm
from formlift import lpsolve as lp
from formlift import polytope as pt


@st.composite
def _formulas(draw, n, size):
    """A reduced formula over n variables: an AND/OR tree of `size` literals."""
    if size == 1:
        return fm.lit(draw(st.integers(1, n)), n, negated=draw(st.booleans()))
    left = draw(st.integers(1, size - 1))
    op = draw(st.sampled_from((fm.land, fm.lor)))
    return op(draw(_formulas(n, left)), draw(_formulas(n, size - left)))


@st.composite
def _instances(draw, max_size=7):
    """(phi, Q): a formula with n <= 5 and the cube or a box-rooted polytope."""
    n = draw(st.integers(1, 5))
    phi = draw(_formulas(n, draw(st.integers(1, max_size))))
    rows = draw(st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                   st.integers(-2, 2)), max_size=2))
    return phi, pt.from_hrep(n, rows)


def _points(n):
    return itertools.product((0, 1), repeat=n)


def _holds(rows, p):
    return all(sum((a * x for a, x in zip(coeffs, p)), Fraction(0)) >= rhs
               for coeffs, rhs in rows)


def _holds_sparse(rows, y):
    return all(sum(c * y[j] for j, c in a) >= b for a, b, _ in rows)


def _target(phi, Q, p):
    return phi.evaluate(p) and _holds(Q.xspace_rows(), p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_instances())
def test_routes_agree_on_every_01_point(inst):
    phi, Q = inst
    ef, _ = pt.lift(phi, Q)
    F = hull.lift_hrep(phi, Q.xspace_rows())
    for p in _points(Q.n):
        on_hull = F is not None and _holds(F.rows(), p)
        assert on_hull == _target(phi, Q, p), p
        assert lp.contains_point(ef, p) == on_hull, p
    if F is not None:
        verts, rays = hull.vertices_of_hrep(F)
        assert not rays
        assert hull.equals_hull(ef, verts)


def _check_map(phi, Q, ef):
    if ef.empty_marker:
        assert not any(_target(phi, Q, p) for p in _points(Q.n))
        return
    assert ef.point_map is not None
    for p in _points(Q.n):
        y = ef.point_map(p)
        if _target(phi, Q, p):
            assert y is not None, p
            assert len(y) == ef.ydim
            assert _holds_sparse(ef.rows, y), p
            assert lp._project(ef, y) == p
        else:
            assert y is None, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_instances())
def test_point_map_verifies_exactly_on_target(inst):
    phi, Q = inst
    ef, _ = pt.lift(phi, Q)
    _check_map(phi, Q, ef)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instances(max_size=4))
def test_point_map_of_a_second_ef_round(inst):
    # both rounds on the extended-formulation route, so the second round
    # restricts, intersects and unites lifted formulations
    phi, Q = inst
    ef = pt.lift(phi, pt.lift(phi, Q)[0])[0]
    _check_map(phi, Q, ef)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_instances())
# 010, the first witness of the first two clauses, fails the third; the scan
# resumes there and finds 011, then 101 for all four
@example((fm.parse("(x1 | x2) & (x2 | x3) & (!x2 | x3) & (!x3 | x1)", 3), pt.cube(3)))
# no 0/1 point satisfies all four clauses, so the last site is the LP's
@example((fm.parse("(x1 | x2) & (!x1 | x2) & (x1 | !x2) & (!x1 | !x2)", 2), pt.cube(2)))
def test_witness_verdicts_are_the_lp_verdicts(inst):
    phi, Q = inst
    ef, rep = pt.lift(phi, Q)
    with mock.patch.object(pt, "_witness", lambda *args: None):
        ef_lp, rep_lp = pt.lift(phi, Q)
    assert rep.emptiness == rep_lp.emptiness
    assert rep.summary_line() == rep_lp.summary_line()
    assert ef == ef_lp
    assert rep_lp.witnessed == 0 and rep_lp.lp_decided == len(rep_lp.emptiness)
    assert rep.witnessed <= sum(e.endswith(":nonempty") for e in rep.emptiness)


def test_witness_and_lp_decisions_are_counted():
    bz4 = fm.reduce(fm.parse("(x1 | x2) & (x2 | x3) & (x3 | x4) & (x1 | x4)", 4))
    _, rep = pt.lift(bz4, pt.cube(4))
    assert rep.emptiness and rep.witnessed == len(rep.emptiness)
    assert rep.lp_decided == 0
    # x1 = 1/2 has no 0/1 point: every site, nonempty ones too, needs the LP
    half = pt.from_hrep(2, [((2, 0), 1), ((-2, 0), -1)])
    phi = fm.reduce(fm.parse("(x1 | x2) & (!x1 | x2)", 2))
    ef, rep = pt.lift(phi, half)
    assert not ef.empty_marker
    assert rep.emptiness == ("block:empty", "block:nonempty", "block:empty",
                             "block:nonempty", "intersect:nonempty")
    assert rep.witnessed == 0 and rep.lp_decided == 5


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_instances(max_size=5), st.data())
def test_or_root_is_hulled_once_to_the_canonical_facets(inst, data):
    # an OR root is hulled straight from its arms' vertices, redundant ones
    # included; hulling the vertices of that result again must change
    # nothing, equations included.  The second round lifts over the first,
    # whose fractional vertices leave points inside the hull of the arms.
    phi, Q = inst
    other = data.draw(_formulas(Q.n, data.draw(st.integers(1, 3))))
    phi = fm.lor(phi, other)
    rows = Q.xspace_rows()
    for _ in range(2):
        F = hull.lift_hrep(phi, rows)
        if F is None:
            return
        verts, rays = hull.vertices_of_hrep(F)
        assert not rays
        assert hull.facets_of_points(verts) == F
        rows = F.rows()


def _written_rows(ef):
    """The rational rows of ef as its text lists them, read with Fraction
    alone, apart from the parser the formulation files go through."""
    rows = []
    for line in pt.to_text(ef).splitlines():
        kind, *toks = line.split()
        if kind in ("ineq", "row"):
            *coeffs, ge, rhs = toks
            assert ge == ">="
            pairs = (enumerate(coeffs) if kind == "ineq"
                     else ((int(j), c) for j, c in (t.split(":") for t in coeffs)))
            rows.append((tuple((j, Fraction(c)) for j, c in pairs if Fraction(c)),
                         Fraction(rhs)))
    assert rows
    return rows


def _written_proj(ef):
    """The projection of ef as its text lists it, read with Fraction alone:
    one rational row (pairs, offset) per x coordinate, the identity when the
    text is in x-space."""
    proj = []
    for line in pt.to_text(ef).splitlines():
        kind, *toks = line.split()
        if kind == "proj":
            i, off, *coeffs = toks
            assert int(i) == len(proj) + 1
            proj.append((tuple((j, Fraction(c)) for j, c in enumerate(coeffs) if Fraction(c)),
                         Fraction(off)))
    return proj or [(((i, 1),), 0) for i in range(ef.n)]


def _disjunctive_rows(A, B):
    """The rational rows of conv(A ∪ B) over (yA, yB, lam), from the arms' written rows."""
    lam = A.ydim + B.ydim
    rows = [(pairs + (((lam, -rhs),) if rhs else ()), 0) for pairs, rhs in _written_rows(A)]
    rows += [(tuple((j + A.ydim, c) for j, c in pairs) + (((lam, rhs),) if rhs else ()), rhs)
             for pairs, rhs in _written_rows(B)]
    return rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_instances(max_size=5), st.data())
def test_built_int_rows_match_a_fresh_conversion(inst, data):
    # every constructor builds its int rows and its int projection from its
    # inputs' int rows, which must be the canonical int rows of the rationals
    # the text writes, with no Fraction left; a union's rows must be its arms'
    # rows scaled by the weight.  The cut has denominators 2 and 3, so that
    # some rows have a scale other than 1, and C's projection x_i = 1/2 - y/3
    # has denominators, so that some projections do.
    phi, Q = inst
    A = pt.lift(phi, Q)[0]
    B = pt.lift(data.draw(_formulas(Q.n, data.draw(st.integers(1, 4)))), Q)[0]
    C = pt.from_text(f"ef\nxvars {Q.n}\nyvars 1\nrow 0:1 >= 0\nrow 0:-1 >= -1\n"
                     + "".join(f"proj {i} 1/2 -1/3\n" for i in range(1, Q.n + 1)))
    var = data.draw(st.integers(1, Q.n))
    a = tuple(Fraction(data.draw(st.integers(-2, 2)), 3) for _ in range(Q.n))
    cut = pt.with_xspace_rows(A, [(a, Fraction(2 * data.draw(st.integers(-3, 2)) + 1, 2))])
    unions = [(A, B), (cut, B), (B, cut), (C, A), (A, C), (C, C)]
    built = [pt.balas_union(X, Y) for X, Y in unions]
    for ef in (pt.intersect(A, B), pt.intersect(B, A), pt.face_restrict(A, {var: 0}),
               pt.face_restrict(pt.intersect(A, Q), {var: 1}), pt.face_restrict(C, {var: 1}),
               pt.intersect(A, C), pt.intersect(C, C), pt.balas_union(C, A, C),
               pt.with_xspace_rows(built[0], [(a, 1)]), pt.iterate_lift(phi, Q, 2)[0],
               cut, Q, A, B, C, *built):
        for X in (ef, pt.from_text(pt.to_text(ef))):
            assert X.rows == lp._int_rows(_written_rows(X))
            assert X.proj == lp._int_rows(_written_proj(X))
            assert all(type(v) is int for a, b, l in X.proj for v in (b, l, *dict(a).values()))
    for (X, Y), U in zip(unions, built):
        if not (X.empty_marker or Y.empty_marker):
            assert U.rows == lp._int_rows(_disjunctive_rows(X, Y))


def _nogood(p):
    """The no-good cut of the 0/1 point p, valid wherever p is not."""
    return tuple(1 - 2 * v for v in p), 1 - sum(p)


def _exact(ef, a, beta, u):
    """u >= 0 proves a·x >= beta on ef with u·A = a·T and u·b = beta - a·t
    exactly; `_implied` leaves the signs to its caller."""
    obj, const = lp._y_objective(ef, a)
    U, E = lp._common(u.values())
    return (all(v >= 0 for v in u.values())
            and lp._implied(ef.rows, lp._objective(obj), dict(zip(u, U)), E) == beta - const)


def _plain(ef):
    """ef with neither map: every question it gets goes to the LP."""
    return pt.ExtendedFormulation(ef.n, ef.ydim, ef.rows, ef.proj)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_instances())
def test_composed_certificates_verify_and_keep_the_lp_verdicts(inst):
    phi, Q = inst
    ef, _ = pt.lift(phi, Q)
    if ef.empty_marker:
        return
    # no-good cuts of inside points are not valid, so their maps must say None
    for a, beta in [_nogood(p) for p in _points(Q.n)] + Q.xspace_rows():
        u = ef.dual_map(tuple(a), beta)
        assert u is None or _exact(ef, a, beta, u), (a, beta)
    plain = _plain(ef)
    for p in _points(Q.n):
        assert lp.contains_point(ef, p) == lp.contains_point(plain, p), p
    if len(Q.rows) == 2 * Q.n:  # the cube: no outside point and no row needs an LP
        with mock.patch.object(lp, "_solve", side_effect=AssertionError("LP reached")):
            for p in _points(Q.n):
                lp.contains_point(ef, p)
            assert all(lp.proves_valid(ef, a, rhs) for a, rhs in Q.xspace_rows())


def test_a_dual_map_is_never_trusted():
    bz4 = fm.reduce(fm.parse("(x1 | x2) & (x2 | x3) & (x3 | x4) & (x1 | x4)", 4))
    ef, _ = pt.lift(bz4, pt.cube(4))
    want = [lp.contains_point(_plain(ef), p) for p in _points(4)]
    outside = want.count(False)
    # rows reordered under the old maps: the point map's ys still satisfy the
    # rows, the dual map's multipliers sit on the wrong rows
    stale = dataclasses.replace(ef, rows=ef.rows[::-1])
    liar = dataclasses.replace(ef, point_map=None,
                               dual_map=lambda a, beta: {0: Fraction(1), 1: Fraction(-1)})
    box = pt.cube(4).xspace_rows()
    for bad in (stale, liar):
        with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
            assert [lp.contains_point(bad, p) for p in _points(4)] == want
        assert solve.call_count == (outside if bad is stale else 16)
        assert not any(lp.proves_valid(bad, a, rhs) for a, rhs in box)


def test_a_dual_map_naming_a_missing_row_proves_nothing():
    bz4 = fm.reduce(fm.parse("(x1 | x2) & (x2 | x3) & (x3 | x4) & (x1 | x4)", 4))
    ef, _ = pt.lift(bz4, pt.cube(4))
    # the map still names rows of the whole formulation
    cut = dataclasses.replace(ef, rows=ef.rows[:len(ef.rows) // 2])
    cuts = [_nogood(p) for p in _points(4)]
    missing = [(a, rhs) for a, rhs in cuts
               if max(ef.dual_map(a, rhs) or [-1]) >= len(cut.rows)]
    assert missing and not any(lp.proves_valid(cut, a, rhs) for a, rhs in missing)


def test_composition_stays_linear_in_the_formula():
    # a face that tried both forms of every inequality would make 2^16 box
    # calls for the block x1 & ... & x16; its faces pass the cut down once
    n = 19
    text = "((" + " & ".join(f"x{i}" for i in range(1, 17)) + ") | x17) & (x18 | x19)"
    phi = fm.reduce(fm.parse(text, n))
    ef, _ = pt.lift(phi, pt.cube(n))
    p = (1,) * 17 + (0, 0)
    assert not phi.evaluate(p)
    with mock.patch.object(pt, "_box_dual", wraps=pt._box_dual) as box, \
            mock.patch.object(lp, "_solve", side_effect=AssertionError("LP reached")):
        assert not lp.contains_point(ef, p)
    assert box.call_count <= phi.size

    def best(Q):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            assert not lp.contains_point(Q, p)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(ef) <= 3 * best(_plain(ef))


_QUARTERS = tuple(Fraction(k, 4) for k in range(5))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_instances(), st.data())
def test_fractional_points_get_the_lp_answer(inst, data):
    # the witness combination may only prove what the fixing LP proves
    phi, Q = inst
    ef, _ = pt.lift(phi, Q)
    cold = dataclasses.replace(ef, point_map=None)
    for _ in range(4):
        x = tuple(data.draw(st.sampled_from(_QUARTERS)) for _ in range(Q.n))
        assert lp.contains_point(ef, x) == lp.contains_point(cold, x), x


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_instances(), st.data())
def test_convex_combinations_of_the_set_need_no_lifted_lp(inst, data):
    phi, Q = inst
    ef, _ = pt.lift(phi, Q)
    S = [p for p in _points(Q.n) if _target(phi, Q, p)]
    if not S:
        return
    chosen = data.draw(st.lists(st.sampled_from(S), min_size=1, max_size=4))
    weights = data.draw(st.lists(st.integers(1, 5), min_size=len(chosen),
                                 max_size=len(chosen)))
    x = tuple(Fraction(sum(w * p[i] for w, p in zip(weights, chosen)), sum(weights))
              for i in range(Q.n))
    with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
        assert lp.contains_point(ef, x)
    # at most the LP over the witnesses' weights, one column per witness; an
    # x-space lift and a 0/1 point are decided by their rows alone
    assert all(call.args[1] == len(ef.witnesses) for call in solve.call_args_list)
    assert solve.call_count == (0 if ef.is_hrep or x in S else 1)


def test_a_fractional_vertex_is_proved_inside_by_the_lp():
    # one round over bz4 is not integral: min x1+..+x4 is 4/3 at (1/3, ..),
    # against 2 over its 0/1 points, so no witness combination reaches it
    ef, _ = pt.lift(instances.gen_bz(4).formula, pt.cube(4))
    out = lp.optimize(ef, (1, 1, 1, 1))
    assert out.value == Fraction(4, 3) < min(sum(p) for p, _ in ef.witnesses)
    with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
        assert lp.contains_point(ef, out.x)
    assert [call.args[1] for call in solve.call_args_list] == [len(ef.witnesses), ef.ydim]


def test_lying_wit_lines_cost_time_not_membership_answers():
    # two lying files from a bz4 lift: in one every wit line has the next
    # line's y, which holds but projects elsewhere; the other adds lines for
    # two outside points, 0000 with the zero y, which projects to it but
    # fails rows, and 1000 with the y of 1100
    text = pt.to_text(pt.lift(instances.gen_bz(4).formula, pt.cube(4))[0])
    lines = text.splitlines()
    wit = [i for i, line in enumerate(lines) if line.startswith("wit ")]
    rotated = list(lines)
    for i, j in zip(wit, wit[1:] + wit[:1]):
        rotated[i] = lines[i][:8] + lines[j][8:]
    added = lines + ["wit 0000", "wit 1000" + next(line[8:] for line in lines
                                                   if line.startswith("wit 1100"))]
    points = list(itertools.product((0, Fraction(1, 2), 1), repeat=4))
    answers, calls = [], []
    for Q in [pt.from_text(text)] + [pt.from_text("\n".join(b) + "\n") for b in (rotated, added)]:
        with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
            answers.append([lp.contains_point(Q, x) for x in points])
        calls.append(solve.call_count)
    assert answers[0] == answers[1] == answers[2]
    assert calls[0] < calls[1] and calls[0] < calls[2]
