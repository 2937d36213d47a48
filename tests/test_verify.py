import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from formlift import formula as fm
from formlift import hull
from formlift import instances as inst
from formlift import lpsolve as lp
from formlift import measures as ms
from formlift import polytope as pt
from formlift import verify as vf

F = Fraction

TRIANGLE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def test_sandwich_passes_on_bz4():
    b = inst.gen_bz(4)
    rep = vf.check_sandwich(b.formula, pt.cube(4), instance="bz4")
    assert rep.passed
    assert ("points", 11) in rep.stats  # the 11 points with two or more ones
    assert rep.line().startswith("check=sandwich instance=bz4 verdict=pass")


def test_sandwich_fails_on_broken_lift_missing_point():
    phi = fm.parse("x1 | x2", 2)
    broken = pt.face_restrict(pt.cube(2), {1: 1})  # drops the satisfying point (0,1)
    rep = vf.check_sandwich(phi, pt.cube(2), instance="broken", lifted=broken)
    assert not rep.passed
    assert "cut off by the lift" in rep.certificate
    # the certificate re-verifies: (0,1) satisfies the formula, lies in the
    # base, and the broken lift excludes it
    assert phi.evaluate((0, 1))
    assert lp.contains_point(pt.cube(2), (0, 1))
    assert not lp.contains_point(broken, (0, 1))


def test_sandwich_fails_when_lift_leaks_out():
    phi = fm.parse("x1 & x2", 2)
    Q = pt.face_restrict(pt.cube(2), {1: 1})
    rep = vf.check_sandwich(phi, Q, instance="leak", lifted=pt.cube(2))
    assert not rep.passed
    assert "base row" in rep.certificate


def test_sandwich_random_directions_branch():
    phi = fm.reduce(fm.parse("x1 & x2 | !x1 & !x2", 2))
    Q, _ = pt.lift(phi, pt.cube(2))  # diagonal segment, not an H-rep
    good = vf.check_sandwich(phi, Q, instance="diag")
    assert good.passed
    leak = vf.check_sandwich(phi, Q, instance="diag-leak", lifted=pt.cube(2))
    assert not leak.passed
    assert "direction" in leak.certificate


def test_completeness_records_first_equality():
    b = inst.gen_bz(4)
    rep = vf.check_completeness(b.formula, 4, instance="bz4")
    assert rep.passed
    assert ("first_equal", 2) in rep.stats


def test_completeness_single_literal_equal_at_one():
    rep = vf.check_completeness(fm.parse("x2", 3), 3, instance="lit")
    assert rep.passed
    assert ("first_equal", 1) in rep.stats


def test_completeness_empty_set():
    phi = fm.reduce(fm.parse("x1 & !x1", 2))
    rep = vf.check_completeness(phi, 2, instance="contradiction")
    assert rep.passed


def test_completeness_fails_on_wrong_target():
    phi = fm.parse("x1 | x2", 2)
    wrong = fm.point_set(2, [(1, 1)])
    rep = vf.check_completeness(phi, 2, instance="wrong", points=wrong)
    assert not rep.passed
    assert "reason=" in rep.certificate
    # re-verify: the lift after two rounds keeps (1,0), which the claimed
    # target hull (the single point (1,1)) cannot contain
    ef = pt.iterate_lift(fm.reduce(phi), pt.cube(2), 2)
    assert lp.contains_point(ef, (1, 0))


def test_completeness_stops_at_an_empty_round_before_n():
    # round 1 of a contradiction is already empty, so the check ends there
    # with the one point of the claimed target missing from the lift
    rep = vf.check_completeness(fm.parse("x1 & !x1 | x2 & !x2", 2), 2,
                                points=fm.point_set(2, [(1, 0)]))
    assert rep.line() == ("check=complete instance=adhoc verdict=fail n=2 k_max=2 "
                          "first_equal=none rounds=1 certificate: reason=missing-point "
                          "point=(1,0)")


def test_completeness_rejects_points_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 3, formula has 2"):
        vf.check_completeness(fm.parse("x1 | x2", 2), 2,
                              points=fm.point_set(3, [(1, 1, 0)]))


def _completeness_by_equals_hull(phi, k_max, points=None):
    """(verdict, first_equal, rounds, certificate) of check_completeness,
    decided the direct way: hull.equals_hull on every round in turn."""
    phi = fm.reduce(phi)
    n = phi.n
    S = points if points is not None else fm.enumerate_set(phi)
    F = hull.lift_hrep(phi, pt.cube(n).xspace_rows())
    if not S.points:
        if F is None:
            return "pass", "none", 1, None
        return "fail", "none", 1, "empty target but the lift is nonempty"
    for k in range(1, n + 1):
        if k > 1 and F is not None:
            F = hull.lift_hrep(phi, F.rows())
        ef = pt.empty_formulation(n) if F is None else pt.from_hrep(n, F.rows())
        chk = hull.equals_hull(ef, S)
        if chk:
            return "pass", k if k <= k_max else "none", k, None
        if F is None:
            break
    cert = f"reason={chk.reason}"
    if chk.facet is not None:
        cert += f" facet={vf._row(*chk.facet)}"
    if chk.point is not None:
        cert += f" point={vf._vec(chk.point)}"
    return "fail", "none", k, cert


def _completeness_cases():
    cube3 = list(itertools.product((0, 1), repeat=3))
    for mask in range(1, 256):
        S = fm.point_set(3, [p for i, p in enumerate(cube3) if mask >> i & 1])
        yield fm.minterm_dnf(S), 1 + mask % 3, None
        if mask % 2:
            # a wrong target: S mirrored in x1, whose hull on a parallel face
            # has the same facet rows and other equations
            yield fm.minterm_dnf(S), 3, fm.point_set(3, [(1 - p[0],) + p[1:] for p in S])
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        phi = vf.random_reduced_formula(n, rng.randint(1, 2 * n + 2),
                                        neg_density=rng.random() * 0.6, rng=rng)
        points = None
        if rng.random() < 0.3:
            points = fm.point_set(n, [tuple(rng.randint(0, 1) for _ in range(n))
                                      for _ in range(rng.randint(0, 3))])
        yield phi, rng.randint(1, n), points


def test_completeness_agrees_with_equals_hull_on_every_round():
    verdicts = set()
    for phi, k_max, points in _completeness_cases():
        rep = vf.check_completeness(phi, k_max, points=points)
        stats = dict(rep.stats)
        got = rep.verdict, stats["first_equal"], stats["rounds"], rep.certificate
        assert got == _completeness_by_equals_hull(phi, k_max, points), phi
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}


def _planted_rounds(monkeypatch, fault):
    """Make hull._rounds yield each round with its vertex list put through
    `fault` and its rows left right; the next round still lifts the true one."""
    real = hull._rounds

    def planted(phi, base):
        for F in real(phi, base):
            if F is not None:
                F = hull._of_int_rows(F.n, F.ifacets, F.iequations, fault(F.hvertices))
            yield F

    monkeypatch.setattr(hull, "_rounds", planted)


def test_completeness_raises_when_comparison_and_equals_hull_disagree(monkeypatch):
    # every round misses a point of S from its vertex list, so no comparison
    # passes, while equals_hull accepts the rows
    _planted_rounds(monkeypatch, lambda V: V[1:])
    with pytest.raises(lp.InternalError, match="disagree"):
        vf.check_completeness(fm.parse("x1 | x2", 2), 2)


def test_completeness_raises_when_a_round_lists_a_point_the_target_lacks(monkeypatch):
    # (1/2, 1/2) lies in conv(S) but is no point of S
    _planted_rounds(monkeypatch, lambda V: V + ((1, 1, 2),))
    with pytest.raises(lp.InternalError, match="disagree"):
        vf.check_completeness(fm.parse("x1 | x2", 2), 2)


def test_completeness_compares_only_certified_rounds(monkeypatch):
    # the round's hull lost a facet while its vertex list is S all the same;
    # the comparison would pass on rows that state a larger set, so
    # lift_hrep's certificate must refuse the round first
    real = hull._hull

    def dropped(points, n):
        facets, equations = real(points, n)
        return facets[1:], equations
    monkeypatch.setattr(hull, "_hull", dropped)
    monkeypatch.setattr(hull, "_vertices", lambda points, facets, equations: tuple(points))
    with pytest.raises(lp.InternalError, match="rows and its vertex list disagree"):
        vf.check_completeness(fm.parse("x1 | x2", 2), 2)


def test_passing_completeness_solves_no_lp_and_builds_no_round(monkeypatch):
    phi = inst.gen_bz(4).formula
    real = pt.from_hrep

    def refuse(*args, **kwargs):
        raise AssertionError("a passing completeness check must not get here")

    monkeypatch.setattr(lp, "_solve", refuse)
    monkeypatch.setattr(hull, "equals_hull", refuse)
    # cube() is from_hrep with no rows; any round would bring its facets
    monkeypatch.setattr(pt, "from_hrep", lambda n, rows: refuse() if rows else real(n, rows))
    rep = vf.check_completeness(phi, 4, instance="bz4")
    assert rep.passed
    assert ("first_equal", 2) in rep.stats


@pytest.mark.parametrize("text", ["bz4", "x1 & (x2 | x3) | x2 & x4",
                                  "x1 & (x2 | x3) & (!x2 | x4)"])
def test_the_hull_route_makes_no_fraction(monkeypatch, text):
    # the hull rounds reach the formulation of `iterate_lift`, the completeness
    # comparison and closure pricing as int rows
    phi = fm.reduce(inst.gen_bz(4).formula if text == "bz4" else fm.parse(text, 4))
    cube = pt.cube(4)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(Fraction, "__new__", staticmethod(refuse))
    pt.to_text(pt.iterate_lift(phi, cube, 3))
    checks = [vf.check_completeness(phi, 4), vf.check_notch_progression(phi, 2)]
    if phi.is_monotone():
        checks.append(vf.check_pitch_progression(phi, 2))
    assert all(rep.passed for rep in checks)


def test_integrality_passes_on_bz4():
    b = inst.gen_bz(4)
    rep = vf.check_integrality(b.formula, pt.cube(4), instance="bz4")
    assert rep.passed
    assert ("points", 16) in rep.stats


def test_integrality_empty_set_vacuous_pass():
    phi = fm.reduce(fm.parse("x1 & !x1", 3))
    rep = vf.check_integrality(phi, pt.cube(3), instance="empty")
    assert rep.passed


def test_integrality_fails_on_inflated_lift():
    phi = fm.parse("x1 & x2", 2)
    rep = vf.check_integrality(phi, pt.cube(2), instance="inflated",
                               lifted=pt.cube(2))
    assert not rep.passed
    assert "point (0,0)" in rep.certificate
    assert not phi.evaluate((0, 0))
    assert lp.contains_point(pt.cube(2), (0, 0))


def test_pitch_progression_passes():
    tri = inst.gen_covering(TRIANGLE)
    rep = vf.check_pitch_progression(tri.formula, 2, instance="triangle")
    assert rep.passed
    assert rep.line().startswith("check=pitch instance=triangle verdict=pass")


def test_pitch_progression_fails_on_unlifted_relaxation():
    tri = inst.gen_covering(TRIANGLE)
    rep = vf.check_pitch_progression(tri.formula, 1, instance="cube-only",
                                     relaxations=[pt.cube(3)])
    assert not rep.passed
    assert "violated at" in rep.certificate
    # the oracle's finding re-verifies from scratch on the same inputs
    viol = ms.closure_violation(
        ms.ClosureQuery("pitch", 1, tri.points, pt.cube(3)))
    std = viol.standard()
    assert std.is_valid_on(tri.points.points)
    assert std.lhs(viol.point) < std.delta


def test_pitch_progression_requires_monotone():
    with pytest.raises(ValueError):
        vf.check_pitch_progression(fm.parse("!x1", 2), 1)


def test_notch_progression_passes():
    phi = fm.reduce(fm.parse("x1 & x2 | !x1 & !x2", 2))
    rep = vf.check_notch_progression(phi, 2, instance="even")
    assert rep.passed


def test_notch_progression_fails_on_unlifted_relaxation():
    phi = fm.reduce(fm.parse("x1 & x2 | !x1 & !x2", 2))
    rep = vf.check_notch_progression(phi, 1, instance="even-cube",
                                     relaxations=[pt.cube(2)])
    assert not rep.passed
    assert "violated at" in rep.certificate


def test_notch_progression_fixed_point_of_hull():
    # lifting the hull itself stays inside the hull: no violations at any level
    S = fm.point_set(3, [(1, 1, 1)])
    phi = fm.reduce(fm.minterm_dnf(S))
    rep = vf.check_notch_progression(phi, 2, instance="corner")
    assert rep.passed


def test_size_accounting_pass_and_stats():
    k4 = inst.gen_matching_k4()
    rep = vf.check_size_accounting(k4.formula, pt.cube(6), instance="k4")
    assert rep.passed
    stats = dict(rep.stats)
    assert stats["ef_rows"] == 48
    assert stats["naive_rows"] == 120
    assert stats["saved"] == 72
    assert stats["blocks"] == 3


def test_size_accounting_covering_yardstick():
    b = inst.gen_bz(5)
    rep = vf.check_size_accounting(b.formula, pt.cube(5), instance="bz5",
                                   covering_m=b.formula.size)
    stats = dict(rep.stats)
    assert stats["covering_yardstick"] == 10 * 100
    assert rep.passed


def test_size_accounting_fails_on_corrupted_report():
    phi = fm.parse("x1 | x2", 2)
    _, rep0 = pt.lift(phi, pt.cube(2))
    bad = dataclasses.replace(rep0, ef_rows=rep0.row_bound + 1)
    rep = vf.check_size_accounting(phi, pt.cube(2), instance="corrupt", report=bad)
    assert not rep.passed
    assert "exceeds bound" in rep.certificate


def test_reports_are_deterministic():
    b = inst.gen_bz(4)
    a = vf.check_sandwich(b.formula, pt.cube(4), instance="bz4")
    c = vf.check_sandwich(b.formula, pt.cube(4), instance="bz4")
    assert a.line() == c.line()
    p1 = vf.check_pitch_progression(b.formula, 2, instance="bz4")
    p2 = vf.check_pitch_progression(b.formula, 2, instance="bz4")
    assert p1.line() == p2.line()


def test_report_dict_round_trip():
    b = inst.gen_bz(3)
    rep = vf.check_integrality(b.formula, pt.cube(3), instance="bz3")
    d = rep.to_dict()
    assert d["check"] == "integral" and d["verdict"] == "pass"
    assert d["stats"]["points"] == 8


def test_random_reduced_formula_deterministic_and_controlled():
    f1 = vf.random_reduced_formula(4, 7, neg_density=0.5, seed=3)
    f2 = vf.random_reduced_formula(4, 7, neg_density=0.5, seed=3)
    assert f1 == f2
    assert f1.size == 7
    assert f1.is_reduced()
    mono = vf.random_reduced_formula(4, 9, neg_density=0.0, seed=5)
    assert mono.is_monotone()
    with pytest.raises(ValueError):
        vf.random_reduced_formula(0, 1)


# The full lines of the negative controls above and of a lifted lift that
# leaks out of a smaller base.  A fail's certificate comes from the LP's
# point, whatever the lift's dual map proposes.
NEGATIVE_CONTROL_LINES = [
    "check=sandwich instance=broken verdict=fail n=2 points=1 ef_rows=6 size=2 "
    "certificate: satisfying point (0,1) of the base is cut off by the lift",
    "check=sandwich instance=leak verdict=fail n=2 points=1 rows=5 ef_rows=4 size=2 "
    "certificate: base row (1,0)>=1 violated by lift point (0,0) value 0",
    "check=sandwich instance=diag-leak verdict=fail n=2 points=2 rows=6 ef_rows=4 size=4 "
    "certificate: direction (3,-1) separates: lift reaches 3 at (1,0), base only 2",
    "check=integral instance=inflated verdict=fail n=2 points=1 ef_rows=4 "
    "certificate: point (0,0) is in the lift but does not belong to the target",
    "check=sandwich instance=lifted-leak verdict=fail n=2 points=2 rows=2 ef_rows=12 size=2 "
    "certificate: base row (1,0)>=1 violated by lift point (0,1) value 0",
]


def _negative_controls(lie=False):
    def keep(ef):
        # a dual map that claims every inequality with a multiplier of -1
        return dataclasses.replace(ef, dual_map=lambda a, beta: {0: F(-1)}) if lie else ef

    x1_or_x2 = fm.parse("x1 | x2", 2)
    x1_and_x2 = fm.parse("x1 & x2", 2)
    diag = fm.reduce(fm.parse("x1 & x2 | !x1 & !x2", 2))
    cube = pt.cube(2)
    lifted = pt.lift(fm.reduce(x1_or_x2), cube)[0]
    return [
        vf.check_sandwich(x1_or_x2, cube, instance="broken",
                          lifted=keep(pt.face_restrict(cube, {1: 1}))),
        vf.check_sandwich(x1_and_x2, pt.face_restrict(cube, {1: 1}), instance="leak",
                          lifted=keep(cube)),
        vf.check_sandwich(diag, pt.lift(diag, cube)[0], instance="diag-leak", lifted=keep(cube)),
        vf.check_integrality(x1_and_x2, cube, instance="inflated", lifted=keep(cube)),
        vf.check_sandwich(x1_or_x2, pt.from_hrep(2, [((1, 1), 1), ((1, 0), 1)]),
                          instance="lifted-leak", lifted=keep(lifted)),
    ]


@pytest.mark.parametrize("lie", [False, True], ids=["own-maps", "lying-map"])
def test_negative_controls_keep_their_certificates(lie):
    assert [rep.line() for rep in _negative_controls(lie)] == NEGATIVE_CONTROL_LINES
