import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlift import cli
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


def test_the_search_limit_is_checked_before_any_lp(monkeypatch):
    phi = fm.reduce(fm.parse(" | ".join(f"x{i}" for i in range(1, 8))))
    R, _ = pt.lift(phi, pt.cube(7))
    calls = []
    real = lp.emptiness
    monkeypatch.setattr(lp, "emptiness", lambda Q: calls.append(Q) or real(Q))
    with pytest.raises(ValueError, match="exceeds notch search limit 6"):
        ms.verify_closure(ms.ClosureQuery("notch", 1, fm.enumerate_set(phi), R))
    assert calls == []


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
    assert [hull._point(g) for g in ms._cone_generators(dim, level, dvecs)] == list(verts)


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
            got = [hull._point(g) for g in ms._cone_generators(dim, 1, dvecs)]
            assert got == want == [(F(1),) * dim]


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


# ---------------------------------------------------------------------------
# pricing over an x-space relaxation's checked vertex list


def _random_set(rng, n):
    pts = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 6))}
    return fm.point_set(n, sorted(pts))


@st.composite
def _xspace_relaxations(draw):
    """(S, R): a nonempty 0/1 set and an x-space relaxation to price against.

    R is the cube, hull round 1 or 2 of a random reduced formula over 4 or
    5 variables, or a random base clamped to the box with one or two
    equations among its rows, often lower-dimensional."""
    kind = draw(st.sampled_from(("cube", "round", "equations")))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind == "cube":
        n = draw(st.integers(1, 5))
        return _random_set(rng, n), pt.cube(n)
    if kind == "round":
        n = draw(st.integers(4, 5))
        phi = fm.reduce(vf.random_reduced_formula(n, rng.randint(3, 8), neg_density=0.3,
                                                  seed=seed))
        S = fm.enumerate_set(phi)
        rounds = hull._rounds(phi, pt.cube(n).xspace_rows())
        F = next(rounds)
        if draw(st.booleans()):
            F = next(rounds)
        assume(S.points and F is not None)
        return S, pt.from_hrep(n, F.rows())
    n = draw(st.integers(2, 5))
    rows = []
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(n), 2)
        a = [0] * n
        a[i] = 1
        a[j] = rng.choice((-1, 1))
        rhs = 0 if a[j] < 0 else rng.choice((0, 1))
        rows += [(a, rhs), ([-v for v in a], -rhs)]
    for _ in range(rng.randint(0, 3)):
        rows.append(([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 1)))
    R = pt.from_hrep(n, rows)
    assume(not lp.is_empty(R))
    return _random_set(rng, n), R


def _spied_search(monkeypatch, S, R, mode, level):
    """The report, plus (I, neg, C, e, (s, D)) for every direction priced
    over R's vertex list, in pricing order."""
    events = []
    price, gens, vmin = ms._price, ms._cone_generators, ms._vertex_minimum

    def spy_price(query, I, neg, V):
        events.append(("scope", I, neg))
        return price(query, I, neg, V)

    def spy_gens(*args):
        out = gens(*args)
        events.append(("gens", out))
        return out

    def spy_vmin(W, C):
        out = vmin(W, C)
        events.append(("min", out))
        return out

    monkeypatch.setattr(ms, "_price", spy_price)
    monkeypatch.setattr(ms, "_cone_generators", spy_gens)
    monkeypatch.setattr(ms, "_vertex_minimum", spy_vmin)
    rep = ms.verify_closure(ms.ClosureQuery(mode, level, S, R))
    monkeypatch.undo()
    priced, scope, pending = [], None, []
    for ev in events:
        if ev[0] == "scope":
            scope = ev[1:]
        elif ev[0] == "gens":
            pending = list(ev[1])
        else:
            *C, e = pending.pop(0)
            priced.append((*scope, tuple(C), e, ev[1]))
    return rep, priced


def _vertex_list(R):
    """The vertex list `measures` prices an x-space formulation R over."""
    return hull.FacetList(R.n, tuple(R.xspace_rows())).hvertices


def _lp_priced_line(monkeypatch, S, R, mode, level):
    """The report line with every cone vertex priced by an exact LP."""
    monkeypatch.setattr(hull, "certified_vertices", lambda rows, n: None)
    line = ms.verify_closure(ms.ClosureQuery(mode, level, S, R)).line()
    monkeypatch.undo()
    return line


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_xspace_relaxations())
def test_vertex_minimum_equals_the_pricing_lp(case):
    # every direction priced over the checked vertex list has the LP's
    # minimum over R, and the report equals that of LP pricing throughout
    S, R = case
    with pytest.MonkeyPatch.context() as mp:
        checked = _vertex_list(R) is not None
        for mode, level in (("pitch", 1), ("pitch", 2), ("notch", 1), ("notch", 2)):
            rep, priced = _spied_search(mp, S, R, mode, level)
            assert checked or not priced
            for I, neg, C, e, (s, D) in priced:
                a = [F(0)] * S.n
                for i, c in zip(I, C):
                    a[i - 1] = -F(c, e) if i in neg else F(c, e)
                const = sum(F(c, e) for i, c in zip(I, C) if i in neg)
                assert lp.optimize(R, a, "min").value + const == F(s, e * D)
            assert rep.line() == _lp_priced_line(mp, S, R, mode, level)


def test_canonical_relaxations_pass_the_vertex_check(monkeypatch):
    # the cube and every hull round are stated by their own facets, so each
    # is priced over its vertex list, and no facet needs an LP to prove it
    solves = []
    real = lp.optimize_rows
    monkeypatch.setattr(lp, "optimize_rows", lambda *a: solves.append(a) or real(*a))
    for n in range(1, 6):
        assert len(_vertex_list(pt.cube(n))) == 2 ** n
    for seed in range(20):
        phi = fm.reduce(vf.random_reduced_formula(5, 7, neg_density=0.3, seed=seed))
        rounds = hull._rounds(phi, pt.cube(5).xspace_rows())
        for F in (next(rounds), next(rounds)):
            if F is not None:
                assert _vertex_list(pt.from_hrep(5, F.rows()))
    assert not solves


def _round_relaxations():
    """(S, round, the round as a FacetList of its hull's rows with no list
    carried, the round as a formulation of its rows) for rounds 1 and 2 of
    the pinned closure formulas."""
    phis = [instances.gen_bz(4).formula,
            instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).formula]
    phis += [vf.random_reduced_formula(4, 6, neg_density=0.3, seed=s) for s in range(6)]
    for phi in phis:
        phi = fm.reduce(phi)
        S = fm.enumerate_set(phi)
        for F in itertools.islice(hull._rounds(phi, pt.cube(phi.n).xspace_rows()), 2):
            if S.points and F is not None:
                plain = hull.facets_of_points([hull._point(g) for g in F.hvertices])
                yield S, F, plain, pt.from_hrep(phi.n, F.rows())


def test_a_round_is_priced_over_its_certified_vertices(monkeypatch):
    # a round from lift_hrep is priced over the vertex list it carries; the
    # same rows with no list carried (facets_of_points) certify theirs once,
    # lazily, and as a formulation each query certifies the list of its
    # rows; all three give the same line, the violations' LP points included
    checked = []
    real = hull.certified_vertices
    monkeypatch.setattr(hull, "certified_vertices",
                        lambda rows, n: checked.append(set(rows)) or real(rows, n))
    violations = 0
    for S, F, plain, R in _round_relaxations():
        assert plain == F and set(plain.hvertices) == set(F.hvertices)
        for mode, level in (("pitch", 1), ("pitch", 2), ("notch", 1), ("notch", 2)):
            checked.clear()
            line = ms.verify_closure(ms.ClosureQuery(mode, level, S, F)).line()
            assert not checked
            assert ms.verify_closure(ms.ClosureQuery(mode, level, S, plain)).line() == line
            assert not checked
            assert ms.verify_closure(ms.ClosureQuery(mode, level, S, R)).line() == line
            assert len(checked) == 1 and set(F.hrows()) <= checked[0]
            violations += "violation=none" not in line
    assert violations


def test_a_facet_list_that_leaves_the_box_is_priced_clamped():
    # x1 + x2 >= 1 alone is unbounded, so it has no vertex list of its own;
    # it is priced as its formulation, clamped to the box, over that list
    R = hull.FacetList(2, (((F(1), F(1)), F(1)),))
    assert R.hvertices is None
    S = fm.PointSet01(2, ((1, 0), (1, 1)))
    for mode, level in (("pitch", 1), ("pitch", 2), ("notch", 2)):
        line = ms.verify_closure(ms.ClosureQuery(mode, level, S, R)).line()
        assert "violation=none" not in line
        assert line == ms.verify_closure(
            ms.ClosureQuery(mode, level, S, pt.from_hrep(2, R.rows()))).line()


def _faulty_first_vertex_list(monkeypatch, fault):
    """Make the first `vertices_of_rows` call, the relaxation's own, go
    through `fault`; later calls (cone vertices, certificates) are left alone."""
    real = hull.vertices_of_rows
    calls = []

    def planted(rows, n):
        out = real(rows, n)
        calls.append(n)
        return (fault(out[0]), *out[1:]) if len(calls) == 1 else out

    monkeypatch.setattr(hull, "vertices_of_rows", planted)


def _round_one_of_bz4():
    phi = fm.reduce(instances.gen_bz(4).formula)
    F = hull.lift_hrep(phi, pt.cube(4).xspace_rows())
    return fm.enumerate_set(phi), pt.from_hrep(4, F.rows())


def test_a_vertex_outside_the_relaxation_is_caught(monkeypatch):
    S, R = _round_one_of_bz4()

    def shifted(V):
        (*X, D), rest = V[0], V[1:]
        return [(*(v + 2 * D for v in X), D)] + rest  # every coordinate at least 2
    _faulty_first_vertex_list(monkeypatch, shifted)
    with pytest.raises(lp.InternalError, match="violates one of its rows"):
        ms.verify_closure(ms.ClosureQuery("pitch", 2, S, R))


@pytest.mark.parametrize("mode, level", [("pitch", 1), ("notch", 2)])
def test_a_dropped_vertex_is_caught(monkeypatch, mode, level):
    # conv(V) without one vertex has a facet that is no row of R and that
    # the dropped vertex violates, so the exact LP over R's rows goes below it
    S, R = _round_one_of_bz4()
    _faulty_first_vertex_list(monkeypatch, lambda V: V[:-1])
    with pytest.raises(lp.InternalError, match="missing from their list"):
        ms.verify_closure(ms.ClosureQuery(mode, level, S, R))


def test_an_empty_vertex_list_needs_an_empty_relaxation(monkeypatch):
    assert _vertex_list(pt.empty_formulation(2)) == ()
    S, R = _round_one_of_bz4()
    _faulty_first_vertex_list(monkeypatch, lambda V: [])
    with pytest.raises(lp.InternalError, match="has no vertex"):
        ms.verify_closure(ms.ClosureQuery("pitch", 1, S, R))


def test_a_pricing_lp_off_the_vertex_minimum_is_caught(monkeypatch):
    # the violation's LP must reach the least value over R's vertices
    tri = instances.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    real = ms._priced_minimum

    def off(R, a, const):
        value, point = real(R, a, const)
        return value + F(1, 100), point
    monkeypatch.setattr(ms, "_priced_minimum", off)
    with pytest.raises(lp.InternalError, match="disagrees"):
        ms.verify_closure(ms.ClosureQuery("pitch", 1, tri.points, pt.cube(3)))


def _dense_file(n, rows):
    lines = ["ef", f"xvars {n}", "yvars 0"]
    lines += ["ineq " + " ".join(map(str, a)) + f" >= {b}" for a, b in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode, level", [("pitch", 1), ("pitch", 2), ("notch", 2)])
def test_hand_written_xspace_files_keep_their_closure_line(tmp_path, capsys, monkeypatch,
                                                            mode, level):
    # the same polytopes written with scaled, redundant or implied rows: the
    # closure line matches the canonical file's and LP pricing's.  A segment
    # whose equations only inequalities imply gets its vertex list proved by
    # exact LPs; the other files state every facet of their vertices' hull.
    tri = "(x1 | x2) & (x2 | x3) & (x1 | x3)\n"
    (tmp_path / "tri.bool").write_text(tri)
    phi = fm.reduce(fm.parse(tri))
    S = fm.enumerate_set(phi)
    facets = hull.lift_hrep(phi, pt.cube(3).xspace_rows()).rows()
    box = [(tuple(int(j == i) for j in range(3)), 0) for i in range(3)]
    files = {
        "cube": _dense_file(3, box),
        "cube-scaled": _dense_file(3, [(tuple(3 * v for v in a), 3 * b) for a, b in box]
                                   + [((1, 1, 1), 0), ((2, -1, 0), -1)]),
        "round": _dense_file(3, facets),
        "round-scaled": _dense_file(3, [(tuple(2 * v for v in a), 2 * b) for a, b in facets]
                                    + [((1, 1, 1), 1), ((1, 1, 0), 0)]),
        "segment": _dense_file(3, [((1, 1, 0), 1), ((-1, -1, -1), -1)]),
    }
    paths = {}
    checked = {}
    proofs = set()
    real, real_lp = hull.certified_vertices, lp.optimize_rows
    monkeypatch.setattr(hull, "certified_vertices",
                        lambda rows, n: checked.setdefault(name, real(rows, n)))
    monkeypatch.setattr(lp, "optimize_rows",
                        lambda *a: proofs.add(name) or real_lp(*a))
    lines = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.ef"
        paths[name].write_text(text)
        code = cli.dispatch(["closure", "--mode", mode, "--level", str(level), "--formula",
                             str(tmp_path / "tri.bool"), "--ef", str(paths[name])])
        out, err = capsys.readouterr()
        assert err == "" and code == (0 if "violation=none" in out else 1)
        lines[name] = out
    monkeypatch.undo()
    assert lines["cube"] == lines["cube-scaled"]
    assert lines["round"] == lines["round-scaled"]
    assert all(checked[name] for name in files)
    assert proofs == {"segment"}
    for name, path in paths.items():
        R = pt.from_text(path.read_text())
        assert lines[name] == _lp_priced_line(monkeypatch, S, R, mode, level) + "\n"
