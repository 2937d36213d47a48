"""Exact rational linear programming by a two-phase primal simplex.

Every row is converted once into integers (`_int_rows`): int numerators, an
int right-hand side and one positive int scale, the least common
denominator of the row.  The tableau is built from those integers and stays
fraction-free: each row, the cost row included, holds Python int numerators
with one positive int denominator per row, so pivots run on ints
(multiply-subtract, then division by the row's gcd).  Pricing is Bland's
rule, which guarantees termination.  A variable's first sign row c·z_j >= 0
(c > 0) is presolved into a column bound: it adds no tableau row, and z_j
gets one column where a free variable gets two; that row's dual or Farkas
multiplier is read off as the column's reduced cost over c.

A solve may start at an int point y0 instead of the origin: the tableau is
set up in z = y - y0, so only the rows that y0 violates get artificials and
a feasible y0 skips phase one; the multipliers are the same in y and in z.
`optimize` and `emptiness` on a lifted formulation start at the lifted y of
its 0/1 witness with the best objective, as the construction or the file's
`wit` lines propose it.  y0 is never trusted: a wrong one costs pivots, not
a wrong answer.

Every answer carries an exact certificate that is re-verified on all of the
rows as given before it is returned: an optimal solve checks primal
feasibility, dual feasibility and strong duality, an infeasible solve its
Farkas vector.  The point and the multipliers stay int numerators over one
positive int from the tableau through these checks, which run on ints by
cross-multiplication, and a failed one raises InternalError rather than
returning a wrong answer.  `Fraction`s are made once, in the `LpOutcome`.

The public entry points work either on a lifted formulation object or on
plain dense inequality rows in x-space, converted on each call.  A
formulation is duck typed: fields n, ydim, rows and proj (int rows in the
form `_int_rows` gives; proj's row i stands for x_i = (a·y + b)/l),
empty_marker, point_map and dual_map, and properties is_hrep and witnesses
(its 0/1 points p with their proposed lifted y), each computed once and
kept.  `contains_point` reads x once as int numerators X over one d and
decides an x-space formulation by evaluating its rows there.  It proves a
0/1 point inside a lifted one with `_lifts`, which checks on ints that the
y `point_map` proposes satisfies every row and projects to x, as the
witness scan of `polytope` does; no certificate is needed beyond that.  A
fractional point that is a convex combination of witness points is proved
inside the same way, at that combination of their lifted ys, after one
small LP finds the weights.  `proves_valid` proves an x-space inequality
valid from the row multipliers `dual_map` proposes, checked by the same
combination code (`_implied`) as the solver's own dual and Farkas
certificates; multipliers that fail decide nothing.
`contains_point` proves a 0/1 point outside that way, by its no-good cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

# The rational type the benchmark reads and records as the arithmetic backend;
# the solver itself computes on Python ints and answers in Fractions.
_Q = Fraction


class InternalError(RuntimeError):
    """An exact self-check on a computed LP certificate failed."""


class UnboundedError(InternalError):
    """`optimize` found no finite optimum, so the formulation is not a polytope."""


def _rational(v) -> Fraction:
    """v as an exact Fraction, a Fraction itself unchanged; floats are
    refused because they are not exact."""
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TypeError("floating point input is not accepted; pass int, str or Fraction")
    return Fraction(v)


def _ints(vs) -> tuple:
    """The exact values vs, each integral one as an int, on which products
    run fastest; an int entry is kept as it is."""
    vs = [v if type(v) is int else _rational(v) for v in vs]
    return tuple(v.numerator if v.denominator == 1 else v for v in vs)


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
# integer rows
#
# An int row (a, b, l) stands for the rational row (a/l)·z >= b/l: a is a
# tuple of (column, nonzero int numerator) pairs sorted by column, b an int
# and l the least common denominator of the row's coefficients and
# right-hand side.  The form is canonical: equal rational rows give equal
# int rows.


def _int_rows(rows) -> tuple:
    """Each sparse row (pairs, rhs) as an int row (a, b, l).

    Coefficients of a repeated column are added up; floats are refused.
    """
    out = []
    for pairs, rhs in rows:
        acc = {}
        for j, v in pairs:
            if type(v) is not int and type(v) is not Fraction:
                v = _rational(v)
            acc[j] = acc[j] + v if j in acc else v
        if type(rhs) is not int and type(rhs) is not Fraction:
            rhs = _rational(rhs)
        l = lcm(rhs.denominator, *[v.denominator for v in acc.values()])
        a = tuple((j, v.numerator * (l // v.denominator)) for j, v in sorted(acc.items())
                  if v.numerator)
        out.append((a, rhs.numerator * (l // rhs.denominator), l))
    return tuple(out)


def _objective(pairs):
    """The objective pairs·z as one int row (numerators, 0, scale)."""
    return _int_rows(((pairs, 0),))[0]


_ZERO = _objective(())  # the objective 0·z
_F0 = Fraction(0)  # every zero entry of an LpOutcome


def _common(u):
    """Int numerators of the rationals u over their least common denominator."""
    d = lcm(*(v.denominator for v in u))
    return [v.numerator * (d // v.denominator) for v in u], d


def _fractions(U, d):
    """The int numerators U over d > 0 as Fractions, each zero as _F0."""
    return tuple(Fraction(v, d) if v else _F0 for v in U)


def _dense_row(row, dim) -> tuple:
    """The int row (a, b, l) as a dense `Fraction` row (coefficients, rhs)."""
    a, b, l = row
    out = [_F0] * dim
    for j, c in a:
        out[j] = Fraction(c, l)
    return tuple(out), Fraction(b, l)


def _combination(irows, u, E):
    """u·A and u·rhs of the rows as given, for multipliers u/E, u a dict of
    int numerators by row index and E > 0.

    Returns (comb, total, M): int numerators over M = L·E, comb a dict by
    column.  Row i has the int weight u_i·(L // l_i), L the lcm of the l_i.
    """
    L = lcm(*(irows[i][2] for i, v in u.items() if v))
    comb = {}
    total = 0
    for i, v in u.items():
        if v:
            a, b, l = irows[i]
            w = v * (L // l)
            for j, c in a:
                comb[j] = comb.get(j, 0) + w * c
            total += w * b
    return comb, total, L * E


def _holds(irows, y) -> bool:
    """Every int row holds at the point y, exactly: `_holds_over` with D = 1,
    which is exact for rational entries too."""
    return _holds_over(irows, y, 1)


def _holds_over(irows, Y, D) -> bool:
    """Every int row holds at the point Y/D, for int numerators Y over D > 0.

    (a/l)·(Y/D) >= b/l is a·Y >= b·D.
    """
    for a, b, _ in irows:
        lhs = 0
        for j, c in a:
            v = Y[j]
            if v:
                lhs += c * v
        if lhs < b * D:
            return False
    return True


# ---------------------------------------------------------------------------
# core solver on int rows over free and sign-bounded variables
#
# A tableau row is a dict from column to int numerator, its right-hand side
# stored under one more column (RHS), with one positive int denominator per
# row kept alongside: the row stands for numerators/denominator.  The cost
# row has the same form and holds the negated objective value under RHS.
# Zero entries are never stored.  Artificial columns are not stored at all:
# pricing never enters them and no certificate reads them, so an artificial
# appears only as the basis marker ART + i of its row.


def _reduce(row, d):
    """Divide the numerators and the denominator d by their gcd; returns the new d."""
    if d == 1:
        return d
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


def _pivot(tab, den, basis, cost, cden, pr, pc, hold):
    """Bring column pc into the basis at row pr; returns the cost row's denominator.

    The pivot row is scaled by the sign of its pivot element and given that
    element as its denominator (so the entry reads 1), then reduced by the
    gcd.  Every other row with an entry in column pc, the indices `hold`
    lists, and the cost row when it has one, is cleared against it by
    integer multiply-subtract and reduced by its own gcd.  All of it runs on
    Python ints.
    """
    prow = tab[pr]
    p = prow[pc]
    if p < 0:
        for c in prow:
            prow[c] = -prow[c]
        p = -p
    p = den[pr] = _reduce(prow, p)
    for i in hold:
        if i != pr:
            den[i] = _eliminate(tab[i], den[i], prow, p, pc)
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
    ratios are compared by cross-multiplying.  The rows that hold the
    entering column are found in one scan, which the pivot reuses.  Returns
    the cost row's denominator and "optimal" or "unbounded".
    """
    while True:
        pc = min((c for c, v in cost.items() if v < 0 and c < col_limit), default=None)
        if pc is None:
            return cden, "optimal"
        hold = [i for i, row in enumerate(tab) if pc in row]
        best = None
        for i in hold:
            row = tab[i]
            a = row[pc]
            if a > 0:
                b = row.get(rhs, 0)
                if best is None:
                    best, ba, bb = i, a, b
                else:
                    s, t = b * ba, bb * a
                    if s < t or (s == t and basis[i] < basis[best]):
                        best, ba, bb = i, a, b
        if best is None:
            return cden, "unbounded"
        cden = _pivot(tab, den, basis, cost, cden, best, pc, hold)


def _multipliers(cost, cden, m, slack, bound):
    """Row multipliers read off a final cost row, one per original row, as
    int numerators U over E = cden·L, L the lcm of the presolved rows' c.
    A tableau row's multiplier is the reduced cost of its slack; that of a
    sign row (c/l)·z_j >= 0 presolved into the bound of variable j is the
    reduced cost of column 2j divided by c/l.
    """
    L = lcm(*(c for _, c, _ in bound.values()))
    U = [0] * m
    for i in range(m):
        v = cost.get(slack + i)
        if v:
            U[i] = v * L
    for j, (i, c, l) in bound.items():
        U[i] = cost.get(2 * j, 0) * l * (L // c)
    return U, cden * L


def _solve(irows, dim, obj, start=None):
    """Minimize obj·y over {y : (a/l)·y >= b/l for each int row (a, b, l)}.

    irows come from `_int_rows`, obj is one int row (numerators, 0, scale)
    of the objective.  Returns (status, value, y, dual, farkas), exact and
    self-verified: value a Fraction, y = (Y, D) and the multipliers (U, E)
    int numerators over one positive int.

    The tableau is set up in z = y - start, with start an int point (the
    origin when None).  Rows that start satisfies have b - a·start <= 0 and
    begin with their slack basic; only the rows it violates get artificials,
    so a feasible start skips phase one.  start is never trusted: a bad one
    costs artificials, not a wrong answer.  The shift leaves every dual and
    Farkas multiplier as it is, so both are checked against the rows as
    given, at y = start + z.

    The first sign row c·z_j >= 0 (c > 0, right-hand side 0 after the shift,
    so start_j = 0) of a variable is presolved into the bound z_j >= 0: it
    gets no tableau row, and z_j keeps only its column 2j.  Every other
    variable is free, split into columns 2j and 2j+1, and every other row is
    a tableau row with its own slack.  The dual and Farkas multipliers of
    presolved rows are reduced costs (see `_multipliers`), so both
    certificates cover the rows as given and are checked against all of
    them.
    """
    m = len(irows)
    SLACK = 2 * dim
    ART = SLACK + m
    RHS = ART + m

    # each row in z = y - start: (a/l)·y >= b/l is (a/l)·z >= (b - a·start)/l
    shifted = []
    bound = {}  # variable -> (index, numerator, scale) of its presolved sign row
    for i, (a, b, l) in enumerate(irows):
        if start is not None:
            for j, c in a:
                v = start[j]
                if v:
                    b -= c * v
        shifted.append(b)
        if not b and len(a) == 1:
            (j, c), = a
            if c > 0 and j not in bound:
                bound[j] = (i, c, l)
    presolved = {i for i, _, _ in bound.values()}

    # Row i is a·z - l·s_i = b over the denominator l, flipped so the slack
    # can start basic when b <= 0.
    tab = []
    den = []
    basis = []
    art_rows = []
    for i, ((a, _, l), b) in enumerate(zip(irows, shifted)):
        if i in presolved:
            continue
        f = -1 if b <= 0 else 1
        row = {}
        for j, c in a:
            row[2 * j] = f * c
            if j not in bound:
                row[2 * j + 1] = -f * c
        row[SLACK + i] = -f * l
        if b:
            row[RHS] = f * b
        if f > 0:
            basis.append(ART + i)
            art_rows.append(len(tab))
        else:
            basis.append(SLACK + i)
        tab.append(row)
        den.append(l)

    # Phase 1: drive the artificials to zero.  The cost row is minus the sum
    # of the artificial rows.
    if art_rows:
        cden = lcm(*(den[r] for r in art_rows))
        cost = {}
        for r in art_rows:
            s = cden // den[r]
            for c, v in tab[r].items():
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
            _check_farkas(irows, *farkas)
            return "infeasible", None, None, None, farkas
        # Pivot leftover artificials out.  Such a row was never a pivot row,
        # so its own slack column, which no other row holds, is still in it.
        for r in range(len(tab)):
            if basis[r] >= ART:
                pc = min(c for c in tab[r] if c < ART)
                cden = _pivot(tab, den, basis, cost, cden, r, pc,
                              [i for i, row in enumerate(tab) if pc in row])

    # Phase 2: price out the basic columns of the objective row.
    cost = {}
    for j, c in obj[0]:
        cost[2 * j] = c
        if j not in bound:
            cost[2 * j + 1] = -c
    cden = obj[2]
    for i, row in enumerate(tab):
        if basis[i] in cost:
            cden = _eliminate(cost, cden, row, den[i], basis[i])
    cden, status = _run(tab, den, basis, cost, cden, ART, RHS)
    if status != "optimal":
        return "unbounded", None, None, None, None

    # y = start + z over D, the lcm of the basic rows that set a coordinate
    sets = [(col, row[RHS], d) for col, row, d in zip(basis, tab, den)
            if col < SLACK and RHS in row]
    D = lcm(*(d for _, _, d in sets))
    Y = [0] * dim if start is None else [v * D for v in start]
    for col, v, d in sets:
        j, neg = divmod(col, 2)
        Y[j] += (-v if neg else v) * (D // d)
    C, _, k = obj
    shift = 0 if start is None else sum(c * start[j] for j, c in C)
    value = Fraction(cden * shift - cost.get(RHS, 0) * k, cden * k)
    dual = _multipliers(cost, cden, m, SLACK, bound)
    _check_optimal(irows, obj, value, Y, D, *dual)
    return "optimal", value, (Y, D), dual, None


def _implied(irows, obj, u, E):
    """The bound (u/E)·rhs that int multipliers u by row index over E > 0,
    whose signs the caller checks, prove on obj·y over the rows: a Fraction
    when (u/E)·A = obj exactly, by integer cross-multiplication, else None.
    obj is one int row (numerators, 0, scale).
    """
    comb, total, M = _combination(irows, u, E)
    C, _, k = obj
    C = dict(C)
    if any(comb.get(j, 0) * k != C.get(j, 0) * M for j in comb.keys() | C.keys()):
        return None
    return Fraction(total, M)


def _check_farkas(irows, U, E):
    """U/E >= 0, (U/E)·A = 0 and (U/E)·rhs > 0 over the rows as given."""
    if any(u < 0 for u in U):
        raise InternalError("negative Farkas multiplier")
    gain = _implied(irows, _ZERO, dict(enumerate(U)), E)
    if gain is None or gain <= 0:
        raise InternalError("Farkas certificate does not refute the system")


def _check_optimal(irows, obj, value, Y, D, U, E):
    """z = Y/D is feasible, dual = U/E >= 0, dual·A = obj and dual·rhs =
    obj·z = value, each identity checked on ints (obj = C/k), the dual's
    combination by `_implied`.
    """
    if not _holds_over(irows, Y, D):
        raise InternalError("reported optimum violates a constraint")
    if any(u < 0 for u in U):
        raise InternalError("negative dual multiplier")
    C, _, k = obj
    if sum(c * Y[j] for j, c in C) * value.denominator != value.numerator * k * D:
        raise InternalError("objective value disagrees with the reported point")
    if _implied(irows, obj, dict(enumerate(U)), E) != value:
        raise InternalError("dual certificate does not prove optimality")


# ---------------------------------------------------------------------------
# public entry points


def _neg(pairs):
    """The pairs with every value negated."""
    return tuple((j, -v) for j, v in pairs)


def _pairs(c):
    """The nonzero entries of a dense vector as (index, value) pairs."""
    return tuple((j, v) for j, v in enumerate(c) if v)


def optimize_rows(rows, dim, c, sense: str = "min") -> LpOutcome:
    """Optimize a linear objective over {x : a·x >= rhs} given dense rows."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    srows = []
    for a, rhs in rows:
        a = tuple(a)
        if len(a) != dim:
            raise ValueError("row length does not match dimension")
        srows.append((_pairs(a), rhs))
    c = tuple(c)
    if len(c) != dim:
        raise ValueError("objective length does not match dimension")
    flip = -1 if sense == "max" else 1
    status, value, z, dual, farkas = _solve(_int_rows(srows), dim,
                                            _objective(_pairs(flip * v for v in c)))
    if status == "optimal":
        return LpOutcome("optimal", flip * value, _fractions(*z), None, _fractions(*dual))
    if status == "infeasible":
        return LpOutcome("infeasible", farkas=_fractions(*farkas))
    return LpOutcome("unbounded")


def _y_objective(Q, c):
    """The linear form c·x as pairs over y, and its constant, through the
    projection; ints where c_i and the row's l are integral."""
    obj = {}
    const = 0
    for ci, (a, b, l) in zip(c, Q.proj):
        if ci:
            if l != 1:
                ci = Fraction(ci, l)
            if b:
                const += ci * b
            for j, coef in a:
                v = ci * coef
                obj[j] = obj[j] + v if j in obj else v
    return tuple((j, v) for j, v in obj.items() if v), const


def _project(Q, Y, D=1):
    """The x of the lifted point Y/D, for int numerators Y over D > 0:
    x_i = (a·Y + b·D)/(l·D), one int sum per coordinate."""
    return tuple(Fraction(sum([c * Y[j] for j, c in a]) + b * D, l * D) for a, b, l in Q.proj)


def _lifts(Q, Y, D, X, d=1) -> bool:
    """Y/D is a point of Q over X/d, for int numerators Y over D > 0 and X
    over d > 0: the projection (a·Y + b·D)/(l·D) is X_i/d in each
    coordinate, (a·Y + b·D)·d == X_i·l·D, and every row holds at Y/D.
    With D = 1 it is as exact for a rational Y, such as a point map's y."""
    return all((sum([c * Y[j] for j, c in a]) + b * D) * d == xi * l * D
               for xi, (a, b, l) in zip(X, Q.proj)) and _holds_over(Q.rows, Y, D)


def _start(Q, c):
    """Where a solve over a lifted Q starts: the y of its witness p with the
    least c·p (the first such p in `witnesses` order), or None on an x-space
    formulation and on one without witnesses."""
    if Q.is_hrep or not Q.witnesses:
        return None
    return min(Q.witnesses, key=lambda w: sum(ci for ci, pi in zip(c, w[0]) if pi))[1]


def optimize(Q, c, sense: str = "min") -> LpOutcome:
    """Optimize c·x over the projection of a lifted formulation.

    The solve happens in the lifted variables; `x` is the projected
    optimizer and `y` the lifted one; on an x-space formulation (`is_hrep`)
    the objective is taken as it is and y is x.  The empty marker is
    rejected: callers decide emptiness first (the lift constructors already
    guarantee that a non-marker result is nonempty).  A lifted formulation describes a
    polytope, so an unbounded answer means the formulation is corrupted and
    raises UnboundedError, a kind of InternalError.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    c = _ints(c)
    if len(c) != Q.n:
        raise ValueError("objective length does not match the variable count")
    if Q.empty_marker:
        raise ValueError("cannot optimize over the empty marker")
    flip = -1 if sense == "max" else 1
    c = tuple(flip * v for v in c)
    if Q.is_hrep:
        obj, const = _pairs(c), 0
    else:
        obj, const = _y_objective(Q, c)
    status, value, y, dual, farkas = _solve(Q.rows, Q.ydim, _objective(obj), _start(Q, c))
    if status == "unbounded":
        raise UnboundedError("lifted formulations are bounded; unbounded solve")
    if status == "infeasible":
        return LpOutcome("infeasible", farkas=_fractions(*farkas))
    lifted = _fractions(*y)
    x = lifted if Q.is_hrep else _project(Q, *y)
    return LpOutcome("optimal", flip * (value + const), x, lifted, _fractions(*dual))


def emptiness(Q) -> LpOutcome:
    """Emptiness test with certificate.

    Returns the outcome of `optimize` with the zero objective: "optimal"
    carries a feasible lifted point (and its projection) witnessing
    nonemptiness, "infeasible" carries a Farkas combination of the rows.
    The marker is reported infeasible with no certificate; its single row
    0 >= 1 is its own refutation.
    """
    return LpOutcome("infeasible") if Q.empty_marker else optimize(Q, (0,) * Q.n)


def is_empty(Q) -> bool:
    """Exact emptiness test for a lifted formulation."""
    return emptiness(Q).status == "infeasible"


def _combined(Q, X, d) -> bool:
    """True when x = X/d = Σ λ_p·p over Q's witnesses p proves x inside Q.

    One small exact LP finds λ >= 0 with Σ d·λ_p·p = X and Σ λ_p = 1; the
    lifted point y = Σ λ_p·y_p must then be a point of Q over x (`_lifts`).
    Since Q is convex and contains each proved y_p, a convex
    combination of 0/1 points of the set is proved this way; False decides
    nothing (x outside the witnesses' hull, or a witness y that fails).
    """
    wits = Q.witnesses
    rows = [(((k, 1),), 0) for k in range(len(wits))]
    for i, xi in enumerate(X):
        pairs = tuple((k, d) for k, (p, _) in enumerate(wits) if p[i])
        rows += ((pairs, xi), (_neg(pairs), -xi))
    ones = tuple((k, 1) for k in range(len(wits)))
    rows += ((ones, 1), (_neg(ones), -1))
    status, _, lam, _, _ = _solve(_int_rows(rows), len(wits), _ZERO)
    if status != "optimal":
        return False
    L, D = lam
    Y = [0] * Q.ydim
    for w, (_, y) in zip(L, wits):
        if w:
            for j, v in enumerate(y):
                if v:
                    Y[j] += w * v
    return _lifts(Q, Y, D, X, d)


def contains_point(Q, x) -> bool:
    """Exact membership of an x-space point in the projected set.

    An x-space formulation (identity projection) is decided by evaluating
    its rows at x.  A 0/1 point of a lifted formulation with a point map is
    inside when the proposed y satisfies every row and projects to x; with
    a dual map, it is outside when `proves_valid` proves its no-good cut
    sum_{x_i=0} x_i - sum_{x_i=1} x_i >= 1 - |x|, which x violates.  Any
    other point of a formulation with witnesses is inside when it is a
    convex combination of witness points whose combined lifted y checks
    (`_combined`): the same exact evaluation, after one LP over as many
    columns as witnesses.  Every question still open is an exact
    feasibility solve over Q's rows with x fixed.
    """
    X, d = _common(_ints(x))
    if len(X) != Q.n:
        raise ValueError("point length does not match the variable count")
    if Q.empty_marker:
        return False
    if Q.is_hrep:
        return _holds_over(Q.rows, X, d)
    if d == 1 and all(v == 0 or v == 1 for v in X):
        if Q.point_map is not None:
            y = Q.point_map(tuple(X))
            if y is not None and _lifts(Q, y, 1, X):
                return True
        if proves_valid(Q, tuple(1 - 2 * v for v in X), 1 - sum(X)):
            return False
    elif Q.witnesses and _combined(Q, X, d):
        return True
    fix = []
    for xi, (a, b, l) in zip(X, Q.proj):
        a = tuple((j, c * d) for j, c in a)
        rhs = xi * l - b * d  # (a·y + b)/l = X_i/d as d·a·y = X_i·l - b·d
        fix.append((a, rhs))
        fix.append((_neg(a), -rhs))
    status, *_ = _solve(Q.rows + _int_rows(fix), Q.ydim, _ZERO)
    return status == "optimal"


def proves_valid(Q, a, rhs) -> bool:
    """True when Q's dual map proves a·x >= rhs on the projection of Q.

    The proposed multipliers are checked exactly against Q's rows; False
    decides nothing (no map, no multipliers, or multipliers that fail).
    """
    a = _ints(a)
    if len(a) != Q.n:
        raise ValueError("inequality length does not match the variable count")
    if Q.dual_map is None or Q.empty_marker:
        return False
    rhs, = _ints((rhs,))
    u = Q.dual_map(a, rhs)
    if u is None or not all(0 <= r < len(Q.rows) for r in u):
        return False
    U, E = _common(u.values())
    obj, const = _y_objective(Q, a)
    bound = _implied(Q.rows, _objective(obj), dict(zip(u, U)), E)
    return min(U, default=0) >= 0 and bound is not None and bound >= rhs - const
