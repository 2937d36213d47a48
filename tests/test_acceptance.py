"""Acceptance gate: one test per numbered criterion, in order.

Each test prints `ACCEPTANCE <k>: PASS` or `... FAIL` so the verdicts can be
grepped from the run log.  All comparisons are exact rational arithmetic
with zero tolerance; the two timed criteria assert their wall-clock budget.
Extended-formulation lifts built along the way are collected so the size
bound of criterion 8 is asserted on every instance that the earlier
criteria touched.
"""

import itertools
import random
import time
from fractions import Fraction

from formlift import formula as fm
from formlift import hull
from formlift import instances as inst
from formlift import lpsolve as lp
from formlift import measures as ms
from formlift import polytope as pt
from formlift import verify as vf

F = Fraction

COLLECTED = []  # (label, LiftReport) for every "ef" route lift in criteria 1-6


def _collect(label, reports):
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    for rep in reports:
        if rep.route == "ef":
            COLLECTED.append((label, rep))


def _verdict(k, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {k}: FAIL")
        raise
    print(f"ACCEPTANCE {k}: PASS")


TRIANGLE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def test_criterion_01_bz5_optima():
    def body():
        t0 = time.time()
        b = inst.gen_bz(5)
        ones = (1, 1, 1, 1, 1)
        ef1, rep1 = pt.lift(b.formula, pt.cube(5))
        _collect("bz5-r1", rep1)
        v1 = lp.optimize(ef1, ones, "min").value
        assert v1 >= F(5, 4)
        assert v1 == F(5, 4)  # observed exactly: the symmetric point survives
        ef2, reps2 = pt.iterate_lift(b.formula, pt.cube(5), 2)
        _collect("bz5-r2", reps2)
        v2 = lp.optimize(ef2, ones, "min").value
        assert v2 == F(2)
        assert time.time() - t0 < 120
    _verdict(1, body)


def test_criterion_02_three_round_completeness():
    def body():
        t0 = time.time()
        pts3 = list(itertools.product((0, 1), repeat=3))
        for mask in range(1, 256):
            S = fm.point_set(3, [p for i, p in enumerate(pts3) if mask >> i & 1])
            phi = fm.reduce(fm.minterm_dnf(S))
            ef, reps = pt.iterate_lift(phi, pt.cube(3), 3)
            _collect(f"minterm-{mask}", reps)
            chk = hull.equals_hull(ef, S)
            assert chk, (mask, chk.reason, chk.facet, chk.point)
        assert time.time() - t0 < 600
    _verdict(2, body)


def test_criterion_03_integrality_random():
    def body():
        for seed in range(50):
            rng = random.Random(seed)
            phi = vf.random_reduced_formula(4, rng.randint(3, 8),
                                            neg_density=0.4, rng=rng)
            ef, rep = pt.lift(phi, pt.cube(4))
            _collect(f"rand4-{seed}", rep)
            for p in itertools.product((0, 1), repeat=4):
                assert lp.contains_point(ef, p) == phi.evaluate(p), (seed, p)
    _verdict(3, body)


def test_criterion_04_pitch_chains_with_cross_check():
    def body():
        for instance in (inst.gen_bz(4), inst.gen_bz(5),
                         inst.gen_covering(TRIANGLE, name="triangle")):
            rep = vf.check_pitch_progression(instance.formula, 2,
                                             instance=instance.name)
            assert rep.passed, rep.line()

        # cross-check at n=4, level 1: the oracle must agree with the explicit
        # generating system {sum_{i in I} x_i >= 1 : the face x_I = 0 misses S}
        b = inst.gen_bz(4)
        S = b.points
        system = []
        for r in range(1, 5):
            for I in itertools.combinations(range(4), r):
                face_hits = any(all(p[i] == 0 for i in I) for p in S.points)
                if not face_hits:
                    system.append(tuple(1 if i in I else 0 for i in range(4)))
        assert system  # bz4 has five such rows (supports of size >= 3)
        ef, rep1 = pt.lift(b.formula, pt.cube(4))
        _collect("bz4-r1", rep1)
        for a in system:
            assert lp.optimize(ef, a, "min").value >= 1, a
        assert ms.verify_closure(ms.ClosureQuery("pitch", 1, S, ef)).violation is None
        # and on the unlifted cube both routes must report a violation
        viol = ms.verify_closure(ms.ClosureQuery("pitch", 1, S, pt.cube(4))).violation
        assert viol is not None
        assert any(lp.optimize(pt.cube(4), a, "min").value < 1 for a in system)
    _verdict(4, body)


def test_criterion_05_notch_chains_random():
    def body():
        for seed in range(20):
            rng = random.Random(1000 + seed)
            phi = vf.random_reduced_formula(4, rng.randint(3, 8),
                                            neg_density=0.45, rng=rng)
            rep = vf.check_notch_progression(phi, 2, instance=f"neg4-{seed}")
            assert rep.passed, rep.line()
    _verdict(5, body)


def test_criterion_06_k4_matching():
    def body():
        k4 = inst.gen_matching_k4()
        ef, rep = pt.lift(k4.formula, pt.cube(6))
        _collect("matching-k4", rep)
        for a, rhs in k4.reference.facets:
            out = lp.optimize(ef, a, "min")
            assert out.value >= rhs, (a, out.value)
        eq_rows = []
        for a, rhs in k4.reference.equations:
            eq_rows.append((a, rhs))
            eq_rows.append((tuple(-v for v in a), -rhs))
        restricted = pt.with_xspace_rows(ef, eq_rows)
        pms = [p for p in k4.points.points if sum(p) == 2]
        assert len(pms) == 3
        assert hull.equals_hull(restricted, pms)
    _verdict(6, body)


def test_criterion_07_measures():
    def body():
        q = ms.to_standard_form((1, 0, 0, 0, 1), 1)
        assert ms.pitch_of(q) == 1
        assert ms.notch_of(q) == 4
        two_ones = fm.point_set(3, [p for p in itertools.product((0, 1), repeat=3)
                                    if sum(p) >= 2])
        assert ms.notch_of_set(two_ones) == 2
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 6)
            neg = tuple(i for i in range(1, n + 1) if rng.random() < 0.3)
            coeffs = tuple(F(rng.randint(0, 4)) for _ in range(n))
            total = sum(coeffs)
            if total == 0:
                continue
            delta = F(rng.randint(0, int(total)))
            q = ms.StandardFormInequality(n, neg, coeffs, delta)
            assert ms.pitch_of(q) <= ms.notch_of(q), q
            checked += 1
    _verdict(7, body)


def test_criterion_08_size_bound_and_ratios():
    def body():
        assert COLLECTED, "criteria 1-6 must run first in this module"
        for label, rep in COLLECTED:
            assert rep.within_bound, (label, rep.summary_line())
        named = [
            ("bz4", inst.gen_bz(4)),
            ("bz5", inst.gen_bz(5)),
            ("triangle", inst.gen_covering(TRIANGLE, name="triangle")),
            ("matching-k4", inst.gen_matching_k4()),
        ]
        for label, instance in named:
            Q = pt.cube(instance.n)
            _, rep = pt.lift(instance.formula, Q)
            assert rep.within_bound, label
            plain = rep.formula_size * rep.base_rows
            yard = 2 * instance.n * (rep.formula_size * instance.n)
            print(f"ACCEPTANCE 8: {label} rows={rep.ef_rows} bound={rep.row_bound} "
                  f"ratio_plain={F(rep.ef_rows, plain)} "
                  f"ratio_covering={F(rep.ef_rows, yard)}")
    _verdict(8, body)


def test_criterion_09_thresholds_and_bounded_covering():
    def body():
        for m in range(1, 11):
            for k in range(1, m + 1):
                thr = fm.threshold_formula(k, m)
                for p in itertools.product((0, 1), repeat=m):
                    assert thr.evaluate(p) == (sum(p) >= k), (k, m, p)
        rng = random.Random(99)
        built = 0
        while built < 20:
            n = rng.randint(2, 5)
            rows, b = [], []
            for _ in range(rng.randint(1, 3)):
                row = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(row) == 0:
                    continue
                rows.append(row)
                b.append(rng.randint(1, sum(row)))
            if not rows:
                continue
            g = inst.gen_bounded_covering(rows, b, name=f"bc-{built}")
            want = tuple(p for p in itertools.product((0, 1), repeat=n)
                         if all(sum(a * x for a, x in zip(r, p)) >= bi
                                for r, bi in zip(rows, b)))
            assert g.points.points == want, (rows, b)
            built += 1
    _verdict(9, body)


def test_criterion_10_infrastructure():
    def body():
        # reduce: evaluation and size preserved, exhaustively up to n = 12
        rng = random.Random(7)
        for n in range(1, 13):
            for _ in range(3):
                f = _not_heavy_tree(rng, n, 4)
                g = fm.reduce(f)
                assert g.is_reduced() and g.size == f.size
                for p in itertools.product((0, 1), repeat=n):
                    assert f.evaluate(p) == g.evaluate(p)

        # double description roundtrip identity on 200 random 0/1 vertex sets
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 5)
            pts = [p for p in itertools.product((0, 1), repeat=n)
                   if rng.random() < 0.5]
            if not pts:
                pts = [tuple(rng.randint(0, 1) for _ in range(n))]
            Fl = hull.facets_of_points(pts)
            verts, rays = hull.vertices_of_hrep(Fl)
            assert not rays
            assert sorted(verts) == sorted(tuple(F(v) for v in p) for p in pts)

        # strong duality, re-verified here independently of the solver's own
        # internal certificate checks
        rng = random.Random(55)
        solved = 0
        while solved < 50:
            n = rng.randint(2, 4)
            rows = [(tuple(1 if j == i else 0 for j in range(n)), 0)
                    for i in range(n)]
            rows += [(tuple(-1 if j == i else 0 for j in range(n)), -1)
                     for i in range(n)]
            for _ in range(rng.randint(1, 3)):
                a = tuple(rng.randint(-2, 2) for _ in range(n))
                rhs = min(sum(ai * pi for ai, pi in zip(a, p))
                          for p in itertools.product((0, 1), repeat=n))
                rows.append((a, rhs))
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            out = lp.optimize_rows(rows, n, c, "min")
            assert out.status == "optimal"
            assert all(d >= 0 for d in out.dual)
            for j in range(n):
                assert sum(d * a[j] for d, (a, _) in zip(out.dual, rows)) == c[j]
            assert sum(d * rhs for d, (_, rhs) in zip(out.dual, rows)) == out.value
            solved += 1

        # negative controls: every checker must fail with a certificate
        phi_or = fm.parse("x1 | x2", 2)
        broken = pt.face_restrict(pt.cube(2), {1: 1})
        r = vf.check_sandwich(phi_or, pt.cube(2), lifted=broken)
        assert not r.passed and r.certificate
        r = vf.check_completeness(phi_or, 2, points=fm.point_set(2, [(1, 1)]))
        assert not r.passed and r.certificate
        r = vf.check_integrality(fm.parse("x1 & x2", 2), pt.cube(2),
                                 lifted=pt.cube(2))
        assert not r.passed and r.certificate
        tri = inst.gen_covering(TRIANGLE)
        r = vf.check_pitch_progression(tri.formula, 1, relaxations=[pt.cube(3)])
        assert not r.passed and r.certificate
        even = fm.reduce(fm.parse("x1 & x2 | !x1 & !x2", 2))
        r = vf.check_notch_progression(even, 1, relaxations=[pt.cube(2)])
        assert not r.passed and r.certificate
        import dataclasses
        _, rep0 = pt.lift(phi_or, pt.cube(2))
        bad = dataclasses.replace(rep0, ef_rows=rep0.row_bound + 1)
        r = vf.check_size_accounting(phi_or, pt.cube(2), report=bad)
        assert not r.passed and r.certificate
    _verdict(10, body)


def _not_heavy_tree(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.3:
        return fm.lnot(_not_heavy_tree(rng, n, depth - 1))
    op = fm.land if roll < 0.65 else fm.lor
    return op(_not_heavy_tree(rng, n, depth - 1), _not_heavy_tree(rng, n, depth - 1))
