"""Exact rational linear programming by a two-phase primal simplex.

The tableau is fraction-free: each row, the cost row included, holds Python
int numerators with one positive int denominator per row, so pivots run on
ints (multiply-subtract, then division by the row's gcd) whichever rational
backend is installed.  Pricing is Bland's rule, which guarantees
termination.  A variable's first sign row c·z_j >= 0 (c > 0) is presolved
into a column bound: it adds no tableau row, and z_j gets one column where a
free variable gets two; that row's dual or Farkas multiplier is read off as
the column's reduced cost over c.  Every answer carries an exact certificate
that is re-verified in `Fraction` arithmetic, on the rows as given, before
it is returned: an optimal solve checks primal feasibility, dual
feasibility and strong duality, an infeasible solve checks its Farkas
vector.  A failed check raises InternalError rather than returning a wrong
answer.  Input data is read through gmpy2.mpq when available,
fractions.Fraction otherwise.

The public entry points work either on a lifted formulation object (duck
typed: fields n, ydim, rows, proj, empty_marker, point_map and the property
is_hrep) or on plain dense inequality rows in x-space.  `contains_point`
decides an x-space formulation by evaluating its rows, and proves a 0/1
point inside a lifted one by evaluating the rows at the lifted point that
`point_map` proposes; no certificate is needed beyond that evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


class InternalError(RuntimeError):
    """An exact self-check on a computed LP certificate failed."""


class UnboundedError(InternalError):
    """`optimize` found no finite optimum, so the formulation is not a polytope."""


def _rational(v) -> Fraction:
    """v as an exact Fraction; floats are refused because they are not exact."""
    if isinstance(v, float):
        raise TypeError("floating point input is not accepted; pass int, str or Fraction")
    return Fraction(v)


def _q(v):
    """v in the backend type; a Fraction is returned as is when that is the backend."""
    if not isinstance(v, Fraction):
        v = _rational(v)
    return v if _Q is Fraction else _Q(v.numerator, v.denominator)


def _frac(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    return Fraction(int(q.numerator), int(q.denominator))


@dataclass(frozen=True)
class LpOutcome:
    """Result of one exact solve.

    `value` and `x` are in the caller's space and sense.  `dual` certifies
    the minimized objective (the negated one when sense was max): it is a
    nonnegative row multiplier vector with dual·A = c and dual·rhs = value.
    `farkas` certifies infeasibility: nonnegative, farkas·A = 0 and
    farkas·rhs > 0.  Both are indexed by the constraint rows as given.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple | None = None
    y: tuple | None = None
    dual: tuple | None = None
    farkas: tuple | None = None


# ---------------------------------------------------------------------------
# core solver on sparse rows over free and sign-bounded variables
#
# A tableau row is a dict from column to int numerator, its right-hand side
# stored under one more column (RHS, past the last artificial), with one
# positive int denominator per row kept alongside: the row stands for
# numerators/denominator.  The cost row has the same form and holds the
# negated objective value under RHS.  Zero entries are never stored.


def _int_row(vals):
    """Numerators of the rationals `vals` over their least common denominator."""
    d = lcm(*(int(v.denominator) for v in vals.values()))
    return {c: int(v.numerator) * (d // int(v.denominator)) for c, v in vals.items() if v}, d


def _reduce(row, d):
    """Divide the numerators and the denominator d by their gcd; returns the new d."""
    g = gcd(d, *row.values())
    if g > 1:
        for c in row:
            row[c] //= g
        d //= g
    return d


def _eliminate(row, d, prow, p, pc):
    """Clear column pc of row/d against the pivot row prow/p, where prow[pc] == p > 0.

    row/d - (row[pc]/d)·(prow/p) = (p·row - row[pc]·prow) / (d·p): scale,
    multiply-subtract and reduce, in place; returns the new denominator.
    """
    f = row[pc]
    if p != 1:
        for c in row:
            row[c] *= p
    for c, v in prow.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    return _reduce(row, d * p)


def _pivot(tab, den, basis, cost, cden, pr, pc):
    """Bring column pc into the basis at row pr; returns the cost row's denominator.

    The pivot row is scaled by the sign of its pivot element and given that
    element as its denominator (so the entry reads 1), then reduced by the
    gcd.  Every other row with an entry in column pc, the cost row included,
    is cleared against it by integer multiply-subtract and reduced by its own
    gcd.  All of it runs on Python ints.
    """
    prow = tab[pr]
    p = prow[pc]
    if p < 0:
        for c in prow:
            prow[c] = -prow[c]
        p = -p
    p = den[pr] = _reduce(prow, p)
    for i, row in enumerate(tab):
        if i != pr and pc in row:
            den[i] = _eliminate(row, den[i], prow, p, pc)
    if pc in cost:
        cden = _eliminate(cost, cden, prow, p, pc)
    basis[pr] = pc
    return cden


def _run(tab, den, basis, cost, cden, col_limit, rhs):
    """Minimize with Bland's rule; entering columns must be < col_limit.

    The entering column is the smallest with a negative reduced cost.  The
    leaving row has the least ratio b/a of right-hand side to a positive
    entry, ties to the smallest basis index.  Denominators are positive and
    cancel from b/a within a row, so both tests read numerators only, and
    ratios are compared by cross-multiplying.  Returns the cost row's
    denominator and "optimal" or "unbounded".
    """
    while True:
        pc = min((c for c, v in cost.items() if v < 0 and c < col_limit), default=None)
        if pc is None:
            return cden, "optimal"
        best = None
        for i, row in enumerate(tab):
            a = row.get(pc)
            if a is not None and a > 0:
                b = row.get(rhs, 0)
                if best is None:
                    best, ba, bb = i, a, b
                else:
                    s, t = b * ba, bb * a
                    if s < t or (s == t and basis[i] < basis[best]):
                        best, ba, bb = i, a, b
        if best is None:
            return cden, "unbounded"
        cden = _pivot(tab, den, basis, cost, cden, best, pc)


def _multipliers(cost, cden, m, slack, bound):
    """Row multipliers read off a final cost row, one per original row.

    A tableau row's multiplier is the reduced cost of its slack; a sign row
    presolved into the bound of variable j is the reduced cost of column 2j
    divided by the row's coefficient.
    """
    u = [Fraction(cost.get(slack + i, 0), cden) for i in range(m)]
    for j, (i, c) in bound.items():
        u[i] = Fraction(cost.get(2 * j, 0), cden) / _frac(c)
    return tuple(u)


def _solve(rows, dim, obj):
    """Minimize sum(obj[j]*z_j) over {z : pairs·z >= rhs for each row}.

    rows: sequence of (pairs, rhs), pairs = ((index, coef), ...).
    obj: dict index -> coef.  Returns (status, value, z, dual, farkas),
    exact and self-verified.

    The first sign row c·z_j >= 0 (c > 0) of a variable is presolved into
    the bound z_j >= 0: it gets no tableau row, and z_j keeps only its
    column 2j.  Every other variable is free, split into columns 2j and
    2j+1, and every other row is a tableau row with its own slack.  The
    dual and Farkas multipliers of presolved rows are reduced costs (see
    `_multipliers`), so both certificates cover the rows as given and are
    checked against all of them.
    """
    m = len(rows)
    SLACK = 2 * dim
    ART = SLACK + m
    RHS = ART + m

    qrows = []
    bound = {}  # variable -> (index, coefficient) of its presolved sign row
    for i, (pairs, rhs) in enumerate(rows):
        beta = _q(rhs)
        acc = {}
        for j, coef in pairs:
            acc[j] = acc.get(j, _ZERO) + _q(coef)
        acc = {j: c for j, c in acc.items() if c}
        qrows.append((acc, beta))
        if not beta and len(acc) == 1:
            (j, c), = acc.items()
            if c > 0 and j not in bound:
                bound[j] = (i, c)
    presolved = {i for i, _ in bound.values()}

    tab = []
    den = []
    basis = []
    art_rows = []
    for i, (acc, beta) in enumerate(qrows):
        if i in presolved:
            continue
        # a·z - s_i = beta; flip so the slack can start basic when beta <= 0
        f = -1 if beta <= 0 else 1
        vals = {}
        for j, c in acc.items():
            vals[2 * j] = f * c
            if j not in bound:
                vals[2 * j + 1] = -f * c
        vals[SLACK + i] = _Q(-f)
        vals[RHS] = f * beta
        if f > 0:
            vals[ART + i] = _ONE
            basis.append(ART + i)
            art_rows.append(len(tab))
        else:
            basis.append(SLACK + i)
        row, d = _int_row(vals)
        tab.append(row)
        den.append(d)

    # Phase 1: drive the artificials to zero.  The cost row is minus the sum
    # of the artificial rows outside the artificial columns.
    if art_rows:
        cden = lcm(*(den[r] for r in art_rows))
        cost = {}
        for r in art_rows:
            s = cden // den[r]
            for c, v in tab[r].items():
                if c < ART or c == RHS:
                    nv = cost.get(c, 0) - s * v
                    if nv:
                        cost[c] = nv
                    else:
                        cost.pop(c, None)
        cden = _reduce(cost, cden)
        cden, status = _run(tab, den, basis, cost, cden, ART, RHS)
        if status != "optimal":
            raise InternalError("phase one cannot be unbounded")
        if cost.get(RHS, 0) < 0:
            farkas = _multipliers(cost, cden, m, SLACK, bound)
            _check_farkas(qrows, farkas, dim)
            return "infeasible", None, None, None, farkas
        # Pivot leftover artificials out; rows that go all-zero are redundant.
        keep = []
        for r in range(len(tab)):
            if basis[r] >= ART:
                pc = min((c for c in tab[r] if c < ART), default=None)
                if pc is None:
                    continue
                cden = _pivot(tab, den, basis, cost, cden, r, pc)
            keep.append(r)
        if len(keep) < len(tab):
            tab = [tab[r] for r in keep]
            den = [den[r] for r in keep]
            basis = [basis[r] for r in keep]

    # Phase 2: price out the basic columns of the objective row.
    vals = {}
    for j, c in obj.items():
        c = _q(c)
        if c:
            vals[2 * j] = c
            if j not in bound:
                vals[2 * j + 1] = -c
    cost, cden = _int_row(vals)
    for i, row in enumerate(tab):
        if basis[i] in cost:
            cden = _eliminate(cost, cden, row, den[i], basis[i])
    cden, status = _run(tab, den, basis, cost, cden, ART, RHS)
    if status != "optimal":
        return "unbounded", None, None, None, None

    vals = {col: Fraction(row.get(RHS, 0), d) for col, row, d in zip(basis, tab, den)}
    zero = Fraction(0)
    z = tuple(vals.get(2 * j, zero) - vals.get(2 * j + 1, zero) for j in range(dim))
    value = Fraction(-cost.get(RHS, 0), cden)
    dual = _multipliers(cost, cden, m, SLACK, bound)
    _check_optimal(qrows, dim, obj, value, z, dual)
    return "optimal", value, z, dual, None


def _check_farkas(qrows, farkas, dim):
    comb = [Fraction(0)] * dim
    gain = Fraction(0)
    for (acc, beta), u in zip(qrows, farkas):
        if u < 0:
            raise InternalError("negative Farkas multiplier")
        if u:
            for j, c in acc.items():
                comb[j] += u * _frac(c)
            gain += u * _frac(beta)
    if any(v != 0 for v in comb) or gain <= 0:
        raise InternalError("Farkas certificate does not refute the system")


def _check_optimal(qrows, dim, obj, value, z, dual):
    comb = [Fraction(0)] * dim
    paid = Fraction(0)
    for (acc, beta), lam in zip(qrows, dual):
        lhs = sum((_frac(c) * z[j] for j, c in acc.items()), Fraction(0))
        if lhs < _frac(beta):
            raise InternalError("reported optimum violates a constraint")
        if lam < 0:
            raise InternalError("negative dual multiplier")
        if lam:
            for j, c in acc.items():
                comb[j] += lam * _frac(c)
            paid += lam * _frac(beta)
    cobj = {j: _frac(_q(c)) for j, c in obj.items()}
    got = sum((cobj.get(j, Fraction(0)) * z[j] for j in range(dim)), Fraction(0))
    if got != value:
        raise InternalError("objective value disagrees with the reported point")
    if any(comb[j] != cobj.get(j, Fraction(0)) for j in range(dim)) or paid != value:
        raise InternalError("dual certificate does not prove optimality")


# ---------------------------------------------------------------------------
# public entry points


def optimize_rows(rows, dim, c, sense: str = "min") -> LpOutcome:
    """Optimize a linear objective over {x : a·x >= rhs} given dense rows."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    srows = []
    for a, rhs in rows:
        a = tuple(a)
        if len(a) != dim:
            raise ValueError("row length does not match dimension")
        srows.append((tuple((j, v) for j, v in enumerate(a) if v != 0), rhs))
    c = tuple(c)
    if len(c) != dim:
        raise ValueError("objective length does not match dimension")
    flip = -1 if sense == "max" else 1
    obj = {j: flip * v for j, v in enumerate(c) if v != 0}
    status, value, z, dual, farkas = _solve(srows, dim, obj)
    if status == "optimal":
        return LpOutcome("optimal", flip * value, z, None, dual, None)
    if status == "infeasible":
        return LpOutcome("infeasible", farkas=farkas)
    return LpOutcome("unbounded")


def _y_objective(Q, c):
    obj = {}
    const = Fraction(0)
    for ci, (pairs, off) in zip(c, Q.proj):
        if ci == 0:
            continue
        const += ci * off
        for j, coef in pairs:
            obj[j] = obj.get(j, Fraction(0)) + ci * coef
    return {j: v for j, v in obj.items() if v != 0}, const


def _project(Q, y):
    out = []
    for pairs, off in Q.proj:
        out.append(sum((coef * y[j] for j, coef in pairs), Fraction(0)) + off)
    return tuple(out)


def optimize(Q, c, sense: str = "min") -> LpOutcome:
    """Optimize c·x over the projection of a lifted formulation.

    The solve happens in the lifted variables; `x` is the projected
    optimizer and `y` the lifted one.  The empty marker is rejected: callers
    decide emptiness first (the lift constructors already guarantee that a
    non-marker result is nonempty).  A lifted formulation describes a
    polytope, so an unbounded answer means the formulation is corrupted and
    raises UnboundedError, a kind of InternalError.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    c = tuple(_rational(v) for v in c)
    if len(c) != Q.n:
        raise ValueError("objective length does not match the variable count")
    if Q.empty_marker:
        raise ValueError("cannot optimize over the empty marker")
    flip = -1 if sense == "max" else 1
    obj, const = _y_objective(Q, tuple(flip * v for v in c))
    status, value, y, dual, farkas = _solve(Q.rows, Q.ydim, obj)
    if status == "unbounded":
        raise UnboundedError("lifted formulations are bounded; unbounded solve")
    if status == "infeasible":
        return LpOutcome("infeasible", farkas=farkas)
    return LpOutcome("optimal", flip * (value + const), _project(Q, y), y, dual, None)


def emptiness(Q) -> LpOutcome:
    """Emptiness test with certificate.

    Returns the outcome of a zero-objective solve: "optimal" carries a
    feasible lifted point (and its projection) witnessing nonemptiness,
    "infeasible" carries a Farkas combination of the rows.  The marker is
    reported infeasible with no certificate; its single row 0 >= 1 is its
    own refutation.
    """
    if Q.empty_marker:
        return LpOutcome("infeasible")
    status, value, y, dual, farkas = _solve(Q.rows, Q.ydim, {})
    if status == "infeasible":
        return LpOutcome("infeasible", farkas=farkas)
    return LpOutcome("optimal", Fraction(0), _project(Q, y), y, dual, None)


def is_empty(Q) -> bool:
    """Exact emptiness test for a lifted formulation."""
    return emptiness(Q).status == "infeasible"


def feasible_point(Q):
    """Some point of the projected set, or None when empty."""
    out = emptiness(Q)
    return out.x if out.status == "optimal" else None


def _holds(rows, y) -> bool:
    """Every sparse row pairs·y >= rhs holds at the point y, exactly."""
    for pairs, rhs in rows:
        lhs = 0
        for j, c in pairs:
            v = y[j]
            if v:
                lhs += c if v == 1 else c * v
        if lhs < rhs:
            return False
    return True


def contains_point(Q, x) -> bool:
    """Exact membership of an x-space point in the projected set.

    An x-space formulation (identity projection) is decided by evaluating
    its rows at x.  A 0/1 point of a lifted formulation with a point map is
    inside when the proposed y satisfies every row and projects to x.  Every
    other question, and every "outside" answer on a lifted formulation, is
    an exact feasibility solve.
    """
    x = tuple(_rational(v) for v in x)
    if len(x) != Q.n:
        raise ValueError("point length does not match the variable count")
    if Q.empty_marker:
        return False
    if Q.is_hrep:
        return _holds(Q.rows, x)
    if Q.point_map is not None and all(v == 0 or v == 1 for v in x):
        y = Q.point_map(x)
        if y is not None and _holds(Q.rows, y) and _project(Q, y) == x:
            return True
    rows = list(Q.rows)
    for xi, (pairs, off) in zip(x, Q.proj):
        rhs = xi - off
        rows.append((pairs, rhs))
        rows.append((tuple((j, -coef) for j, coef in pairs), -rhs))
    status, *_ = _solve(rows, Q.ydim, {})
    return status == "optimal"
