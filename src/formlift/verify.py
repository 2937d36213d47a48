"""Orchestrated checks of the lifting claims on small instances.

Each checker produces a CheckReport whose canonical line is byte-identical
across runs with the same inputs and seeds; timing is recorded but kept out
of the line.  A fail always carries a certificate built from exact
rationals, re-verified by direct arithmetic before the report is emitted.
The lifted formulation (or the relaxation chain) can be injected, which is
how the test suite feeds deliberately broken inputs to prove the checkers
can fail.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from . import hull, lpsolve, measures
from . import polytope as pt

SANDWICH_SEED = 0
SANDWICH_DIRECTIONS = 12


@dataclass(frozen=True)
class CheckReport:
    check: str
    instance: str
    params: tuple
    verdict: str
    certificate: str | None
    timing: float
    stats: tuple

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def line(self) -> str:
        bits = [f"check={self.check}", f"instance={self.instance}",
                f"verdict={self.verdict}"]
        bits += [f"{k}={v}" for k, v in self.params]
        bits += [f"{k}={v}" for k, v in self.stats]
        out = " ".join(bits)
        if self.certificate is not None:
            out += f" certificate: {self.certificate}"
        return out

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "params": dict(self.params),
            "verdict": self.verdict,
            "certificate": self.certificate,
            "timing": self.timing,
            "stats": dict(self.stats),
        }


def _vec(xs) -> str:
    return "(" + ",".join(pt._fmt(v) for v in xs) + ")"


def _row(a, rhs) -> str:
    return f"{_vec(a)}>={pt._fmt(rhs)}"


def _report(check, instance, params, verdict, certificate, t0, stats):
    return CheckReport(check, instance, tuple(params), verdict, certificate,
                       time.perf_counter() - t0, tuple(stats))


def _prepare(phi, limit, what):
    phi = fm.reduce(phi)
    if phi.n > limit:
        raise ValueError(f"{what} handles at most {limit} variables, got {phi.n}")
    return phi


# ---------------------------------------------------------------------------
# individual checks


def check_sandwich(phi, Q, instance: str = "adhoc", lifted=None) -> CheckReport:
    """The lift contains every satisfying 0/1 point of Q and stays inside Q.

    Containment in Q is proved row by row when Q lives in x-space, by the
    lift's composed multipliers where they verify and otherwise by an LP
    whose minimizer also gives the violating point of a fail; when Q is
    lifted it is probed by SANDWICH_DIRECTIONS support comparisons in random
    directions drawn from SANDWICH_SEED.
    """
    t0 = time.perf_counter()
    phi = _prepare(phi, fm.ENUM_LIMIT, "check_sandwich")
    if lifted is None:
        lifted, rep = pt.lift(phi, Q)
        stats_tail = [("ef_rows", rep.ef_rows), ("size", rep.formula_size),
                      ("blocks", rep.blocks)]
    else:
        stats_tail = [("ef_rows", len(lifted.rows)), ("size", phi.size)]
    params = [("n", phi.n)]
    members = 0
    for p in itertools.product((0, 1), repeat=phi.n):
        if not (phi.evaluate(p) and lpsolve.contains_point(Q, p)):
            continue
        members += 1
        if not lpsolve.contains_point(lifted, p):
            if not phi.evaluate(p) or not lpsolve.contains_point(Q, p):
                raise lpsolve.InternalError("sandwich certificate did not re-verify")
            cert = f"satisfying point {_vec(p)} of the base is cut off by the lift"
            return _report("sandwich", instance, params, "fail", cert, t0,
                           [("points", members)] + stats_tail)
    rows_checked = 0
    if not lifted.empty_marker:
        if Q.is_hrep:
            for a, rhs in Q.xspace_rows():
                rows_checked += 1
                if lpsolve.proves_valid(lifted, a, rhs):
                    continue
                out = lpsolve.optimize(lifted, a, "min")
                if out.value < rhs:
                    got = sum(ai * xi for ai, xi in zip(a, out.x))
                    if got >= rhs or not lpsolve.contains_point(lifted, out.x):
                        raise lpsolve.InternalError("sandwich certificate did not re-verify")
                    cert = f"base row {_row(a, rhs)} violated by lift point {_vec(out.x)} value {got}"
                    return _report("sandwich", instance, params, "fail", cert, t0,
                                   [("points", members), ("rows", rows_checked)] + stats_tail)
        else:
            rng = random.Random(SANDWICH_SEED)
            for _ in range(SANDWICH_DIRECTIONS):
                c = [rng.randint(-3, 3) for _ in range(phi.n)]
                rows_checked += 1
                hi_lift = lpsolve.optimize(lifted, c, "max")
                hi_base = lpsolve.optimize(Q, c, "max")
                if hi_lift.value > hi_base.value:
                    cert = (f"direction {_vec(c)} separates: lift reaches {hi_lift.value} "
                            f"at {_vec(hi_lift.x)}, base only {hi_base.value}")
                    return _report("sandwich", instance, params, "fail", cert, t0,
                                   [("points", members), ("rows", rows_checked)] + stats_tail)
    return _report("sandwich", instance, params, "pass", None, t0,
                   [("points", members), ("rows", rows_checked)] + stats_tail)


def check_completeness(phi, k_max: int, instance: str = "adhoc",
                       points=None) -> CheckReport:
    """n rounds of lifting reach the integer hull exactly.

    Also records the first round at which equality holds, up to k_max; that
    number is informational, only the n-round equality decides the verdict.
    Once a round equals the hull the chain is stationary, so the scan stops
    there.  Each round carries its vertex list, certified by `lift_hrep`
    to be exactly the vertices of its rows, and every 0/1 point is a vertex
    of the hull of a 0/1 set that holds it; so round k equals conv(S)
    exactly when its vertices are the points of S, and a pass builds no
    hull of S and takes no LP.  Only a fail builds the last round's
    formulation, and `hull.equals_hull` writes its certificate.
    """
    t0 = time.perf_counter()
    phi = _prepare(phi, hull.HULL_LIMIT, "check_completeness")
    n = phi.n
    S = points if points is not None else fm.enumerate_set(phi)
    if S.n != n:
        raise ValueError(f"point set has dimension {S.n}, formula has {n}")
    params = [("n", n), ("k_max", k_max)]
    rounds_of = hull._rounds(phi, pt.cube(n).xspace_rows())
    if not S.points:
        cert = None if next(rounds_of) is None else "empty target but the lift is nonempty"
        return _report("complete", instance, params, "fail" if cert else "pass", cert, t0,
                       [("first_equal", "none"), ("rounds", 1)])
    target = {(*p, 1) for p in S.points}
    for k, F in zip(range(1, n + 1), rounds_of):
        if F is None:
            break
        if set(F.hvertices) == target:
            return _report("complete", instance, params, "pass", None, t0,
                           [("first_equal", k if k <= k_max else "none"), ("rounds", k)])
    ef = pt.empty_formulation(n) if F is None else pt.from_hrep(n, F.rows())
    chk = hull.equals_hull(ef, S.points)
    if chk:
        raise lpsolve.InternalError("hull comparison and equals_hull disagree")
    cert = f"reason={chk.reason}"
    if chk.facet is not None:
        cert += f" facet={_row(*chk.facet)}"
    if chk.point is not None:
        cert += f" point={_vec(chk.point)}"
    return _report("complete", instance, params, "fail", cert, t0,
                   [("first_equal", "none"), ("rounds", k)])


def check_integrality(phi, Q, instance: str = "adhoc", lifted=None) -> CheckReport:
    """The 0/1 points of the lift are exactly the satisfying points inside Q."""
    t0 = time.perf_counter()
    phi = _prepare(phi, fm.ENUM_LIMIT, "check_integrality")
    if lifted is None:
        lifted, rep = pt.lift(phi, Q)
        tail = [("ef_rows", rep.ef_rows)]
    else:
        tail = [("ef_rows", len(lifted.rows))]
    params = [("n", phi.n)]
    tested = 0
    for p in itertools.product((0, 1), repeat=phi.n):
        tested += 1
        inside = lpsolve.contains_point(lifted, p)
        expected = phi.evaluate(p) and lpsolve.contains_point(Q, p)
        if inside != expected:
            cert = (f"point {_vec(p)} is {'in' if inside else 'outside'} the lift "
                    f"but {'belongs' if expected else 'does not belong'} to the target")
            return _report("integral", instance, params, "fail", cert, t0,
                           [("points", tested)] + tail)
    return _report("integral", instance, params, "pass", None, t0,
                   [("points", tested)] + tail)


def _progression(mode, phi, level_max, instance, relaxations):
    """Round k against the closure of measure k, k = 1..level_max: round k
    is `relaxations[k - 1]`, or else the cube's k-th hull round as its
    FacetList, priced over its certified vertex list."""
    t0 = time.perf_counter()
    limit = measures.PITCH_SEARCH_LIMIT if mode == "pitch" else measures.NOTCH_SEARCH_LIMIT
    phi = _prepare(phi, limit, mode)
    if mode == "pitch" and not phi.is_monotone():
        raise ValueError("pitch progression needs a monotone formula")
    if level_max < 1:
        raise ValueError("need at least one level")
    S = fm.enumerate_set(phi)
    params = [("n", phi.n), ("levels", level_max)]
    examined = priced = 0
    rounds_of = hull._rounds(phi, pt.cube(phi.n).xspace_rows())
    for k in range(1, level_max + 1):
        if relaxations is not None:
            R = relaxations[k - 1]
        else:
            F = next(rounds_of)
            R = pt.empty_formulation(phi.n) if F is None else F
        rep = measures.verify_closure(measures.ClosureQuery(mode, k, S, R))
        examined += rep.examined
        priced += rep.priced
        if rep.violation is not None:
            cert = f"round {k}: {rep.violation.describe()}"
            return _report(mode, instance, params, "fail", cert, t0,
                           [("examined", examined), ("priced", priced), ("failed_at", k)])
    return _report(mode, instance, params, "pass", None, t0,
                   [("examined", examined), ("priced", priced)])


def check_pitch_progression(phi, k_max: int, instance: str = "adhoc",
                            relaxations=None) -> CheckReport:
    """Round k of the lift satisfies every valid monotone inequality of pitch <= k."""
    return _progression("pitch", phi, k_max, instance, relaxations)


def check_notch_progression(phi, v_max: int, instance: str = "adhoc",
                            relaxations=None) -> CheckReport:
    """Round v of the lift satisfies every valid inequality of notch <= v."""
    return _progression("notch", phi, v_max, instance, relaxations)


def _naive_rows(f, base: int, n: int) -> int:
    """Row count of the block-free construction, with no emptiness pruning."""
    k = f.kind
    if k is fm.Kind.CONST:
        return base if f.value else 1
    if k is fm.Kind.LIT:
        return base + 2
    rows = sum(_naive_rows(c, base, n) for c in f.children)
    return rows + (2 * n * (len(f.children) - 1) if k is fm.Kind.AND else 0)


def check_size_accounting(phi, Q, instance: str = "adhoc", covering_m=None,
                          report=None) -> CheckReport:
    """The built lift respects the constructive row bound.

    The bound leaves(phi)*(rows(Q)+2) + 2n*#AND is asserted, where a
    constant leaf counts like a literal; the ratio against the plain
    product size(phi)*rows(Q), the saving against the block-free
    construction, and (when covering_m is given) the ratio against the
    covering yardstick 2n*(covering_m*n) of one lift are reported without
    being judged; covering_m must be at least 1.
    """
    if covering_m is not None and covering_m < 1:
        raise ValueError(f"covering_m must be at least 1, not {covering_m}")
    t0 = time.perf_counter()
    phi = _prepare(phi, fm.ENUM_LIMIT, "check_size_accounting")
    if report is None:
        _, report = pt.lift(phi, Q)
    params = [("n", phi.n), ("size", report.formula_size)]
    naive = _naive_rows(phi, report.base_rows, phi.n)
    stats = [("ef_rows", report.ef_rows), ("bound", report.row_bound),
             ("plain_product", report.formula_size * report.base_rows),
             ("naive_rows", naive), ("saved", naive - report.ef_rows),
             ("blocks", report.blocks)]
    if covering_m is not None:
        yard = 2 * phi.n * covering_m * phi.n
        stats.append(("covering_yardstick", yard))
        stats.append(("covering_ratio", str(Fraction(report.ef_rows, yard))))
    if not report.within_bound:
        cert = f"rows={report.ef_rows} exceeds bound={report.row_bound}"
        return _report("size", instance, params, "fail", cert, t0, stats)
    return _report("size", instance, params, "pass", None, t0, stats)


# ---------------------------------------------------------------------------
# seeded random formulas for test families


def random_reduced_formula(n: int, size: int, neg_density: float = 0.0,
                           rng=None, seed: int = 0) -> fm.Formula:
    """Random reduced tree with `size` literals over n variables.

    Every leaf is negated independently with probability neg_density, so 0
    yields monotone formulas.  Deterministic for a fixed rng state or seed.
    """
    if rng is None:
        rng = random.Random(seed)
    if n < 1 or size < 1:
        raise ValueError("need at least one variable and one literal")

    def build(s):
        if s == 1:
            return fm.lit(rng.randint(1, n), n, negated=rng.random() < neg_density)
        left = rng.randint(1, s - 1)
        a = build(left)
        b = build(s - left)
        return fm.land(a, b) if rng.random() < 0.5 else fm.lor(a, b)

    return build(size)
