"""Boolean formulas over 0/1 variables.

Formulas are immutable trees built from AND/OR nodes, literal leaves (a
1-based variable index, possibly negated) and constants.  An AND/OR node
holds a whole '&'/'|' chain, its operands in reading order, and its first
child is never a node of its own kind; so the tree is as deep as the text
nests, however long its chains.  Freshly parsed input may contain unary NOT
nodes; ``reduce`` pushes every negation onto the leaves, after which the
tree is "reduced" (negations only inside literals).  The size of a formula
is its number of literal leaves; constants count zero, and reduction never
changes the size.

Concrete syntax (whitespace-insensitive)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '!' factor | 'x' INT | '0' | '1' | '(' expr ')'

``parse`` reads each '&'/'|' chain left to right into one node; a
parenthesised operand of the same kind after the first, as in
``x1 | (x2 | x3)``, keeps its own node.  A '!' applied directly to a
variable is folded into a negated literal; any other '!' becomes a NOT node.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from enum import Enum


class Kind(Enum):
    AND = "&"
    OR = "|"
    NOT = "!"
    LIT = "lit"
    CONST = "const"


@dataclass(frozen=True)
class Formula:
    """One node of a formula tree over variables x_1 .. x_n."""

    kind: Kind
    n: int
    children: tuple["Formula", ...] = ()
    var: int = 0            # LIT only, 1-based
    negated: bool = False   # LIT only
    value: bool = False     # CONST only

    @property
    def size(self) -> int:
        """Number of literal leaves."""
        if self.kind is Kind.LIT:
            return 1
        return sum(c.size for c in self.children)

    def is_reduced(self) -> bool:
        """True when no NOT node remains anywhere in the tree."""
        if self.kind is Kind.NOT:
            return False
        return all(c.is_reduced() for c in self.children)

    def is_monotone(self) -> bool:
        """True when the tree contains no NOT node and no negated literal."""
        if self.kind is Kind.NOT:
            return False
        if self.kind is Kind.LIT:
            return not self.negated
        return all(c.is_monotone() for c in self.children)

    def evaluate(self, point) -> bool:
        """Evaluate at a 0/1 point given as a length-n sequence."""
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        return self._eval(point)

    def _eval(self, point) -> bool:
        k = self.kind
        if k is Kind.LIT:
            v = bool(point[self.var - 1])
            return (not v) if self.negated else v
        if k is Kind.CONST:
            return self.value
        if k is Kind.NOT:
            return not self.children[0]._eval(point)
        # an AND stops at its first false child, an OR at its first true one
        stop = k is Kind.OR
        for c in self.children:
            if c._eval(point) == stop:
                return stop
        return not stop

    def to_text(self) -> str:
        """Round-trippable concrete syntax; parse(to_text(f), n) == f."""
        return _render(self, 0)

    def __str__(self) -> str:
        return self.to_text()


_PREC = {Kind.OR: 1, Kind.AND: 2, Kind.NOT: 3, Kind.LIT: 4, Kind.CONST: 4}


def _render(f: Formula, parent_prec: int) -> str:
    if f.kind is Kind.LIT:
        s = f"x{f.var}"
        return "!" + s if f.negated else s
    if f.kind is Kind.CONST:
        return "1" if f.value else "0"
    if f.kind is Kind.NOT:
        return "!" + _render(f.children[0], _PREC[Kind.NOT])
    op = " & " if f.kind is Kind.AND else " | "
    me = _PREC[f.kind]
    # A child at equal precedence is a node of its own (never the first
    # child), so it keeps explicit parentheses to preserve the tree shape.
    s = op.join([_render(c, me) for c in f.children])
    if me <= parent_prec:
        s = "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# constructors


def lit(i: int, n: int, negated: bool = False) -> Formula:
    if not 1 <= i <= n:
        raise ValueError(f"variable index x{i} out of range 1..{n}")
    return Formula(Kind.LIT, n, var=i, negated=negated)


def const(value: bool, n: int) -> Formula:
    return Formula(Kind.CONST, n, value=bool(value))


def lnot(f: Formula) -> Formula:
    """Negation; folds on literals and constants so NOT only wraps gates."""
    if f.kind is Kind.LIT:
        return Formula(Kind.LIT, f.n, var=f.var, negated=not f.negated)
    if f.kind is Kind.CONST:
        return Formula(Kind.CONST, f.n, value=not f.value)
    return Formula(Kind.NOT, f.n, (f,))


def _node(kind: Kind, n: int, children: tuple) -> Formula:
    """A gate node; an AND/OR takes the chain of a first child of its own kind."""
    if kind is not Kind.NOT and children[0].kind is kind:
        children = children[0].children + children[1:]
    return Formula(kind, n, children)


def _binary(kind: Kind, a: Formula, b: Formula) -> Formula:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return _node(kind, a.n, (a, b))


def land(a: Formula, b: Formula) -> Formula:
    return _binary(Kind.AND, a, b)


def lor(a: Formula, b: Formula) -> Formula:
    return _binary(Kind.OR, a, b)


def and_all(parts, n: int) -> Formula:
    """The AND chain of the parts in order; empty input gives the constant true."""
    parts = list(parts)
    return functools.reduce(land, parts) if parts else const(True, n)


def or_all(parts, n: int) -> Formula:
    """The OR chain of the parts in order; empty input gives the constant false."""
    parts = list(parts)
    return functools.reduce(lor, parts) if parts else const(False, n)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i, m = 0, len(text)
    while i < m:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "!&|()":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch in "01":
            tokens.append(("const", ch == "1", i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < m and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected variable index after 'x'", i)
            tokens.append(("var", int(text[i + 1:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, m))
    return tokens


def _read(tokens, n) -> Formula:
    """The formula of `tokens`, read with an explicit stack, so nesting costs
    no Python frames.

    A level holds the OR chain and the AND chain read so far; an open '('
    pushes the enclosing level with the count of '!' read before it, and its
    ')' closes the level's chains and negates the result that many times.
    The trees are those of the grammar in the module docstring, each chain
    a left fold of `lor`/`land`.  Text nested deeper than the interpreter's
    recursion limit, open parentheses and pending '!' counted together,
    raises RecursionError: a tree built from it could be that deep, and
    every recursive walk of such a tree would raise it later.
    """
    limit = sys.getrecursionlimit()
    stack = []          # (ors, ands, nots) of each enclosing level
    ors = ands = None   # this level's OR chain and current AND chain
    nots = depth = 0    # '!' before the next operand; open '(' plus pending '!'
    i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind == "!" or kind == "(":
            depth += 1
            if depth > limit:
                raise RecursionError("formula nests too deeply")
            if kind == "!":
                nots += 1
            else:
                stack.append((ors, ands, nots))
                ors = ands = None
                nots = 0
            continue
        if kind == "var":
            if not 1 <= value <= n:
                raise ParseError(f"variable index x{value} out of range 1..{n}", pos)
            f = lit(value, n, negated=nots % 2 == 1)
        elif kind == "const":
            f = const(value != (nots % 2 == 1), n)
        else:
            raise ParseError("expected '!', variable, constant or '('", pos)
        depth -= nots
        nots = 0
        while True:
            ands = f if ands is None else land(ands, f)
            kind, _, pos = tokens[i]
            i += 1
            if kind == "&":
                break
            if kind == "|":
                ors, ands = ands if ors is None else lor(ors, ands), None
                break
            f = ands if ors is None else lor(ors, ands)
            if not stack:
                if kind != "end":
                    raise ParseError("trailing input after formula", pos)
                return f
            if kind != ")":
                raise ParseError("expected ')'", pos)
            ors, ands, k = stack.pop()
            depth -= 1 + k
            for _ in range(k):
                f = lnot(f)


def parse(text: str, n: int | None = None) -> Formula:
    """Parse concrete syntax into a formula over x_1 .. x_n.

    With n omitted, the dimension is the largest variable index that occurs
    (at least 1).  Each '&'/'|' chain becomes one node with its operands in
    reading order.  Raises ParseError with a character position on bad
    input, and RecursionError on text nested too deeply (see `_read`).
    """
    tokens = _tokenize(text)
    if n is None:
        indices = [v for k, v, _ in tokens if k == "var"]
        n = max(indices) if indices else 1
    return _read(tokens, n)


# ---------------------------------------------------------------------------
# reduction (push negations onto leaves)


def reduce(f: Formula) -> Formula:
    """Return an equivalent reduced formula of the same size.

    Negations are pushed down by the usual dualities, flipping AND/OR along
    the way; double negation cancels.  An already-reduced formula is returned
    unchanged (same object).
    """
    if f.is_reduced():
        return f
    return _push(f, False)


def _push(f: Formula, neg: bool) -> Formula:
    k = f.kind
    if k is Kind.NOT:
        return _push(f.children[0], not neg)
    if k is Kind.LIT:
        return lit(f.var, f.n, negated=f.negated != neg)
    if k is Kind.CONST:
        return const(f.value != neg, f.n)
    kind = k
    if neg:
        kind = Kind.OR if k is Kind.AND else Kind.AND
    return _node(kind, f.n, tuple(_push(c, neg) for c in f.children))


def fixings(f: Formula):
    """(fixed, rest) of a reduced node, walking through nested ANDs.

    `fixed` maps each 1-based variable that a literal conjunct fixes to its
    0/1 value; `rest` lists the other conjuncts, ORs, in reading order.  A
    literal fixes its own variable, a true constant nothing, and an OR is
    its own rest.  None when a false constant or two disagreeing literals
    make the conjunction empty.
    """
    fixed, rest = {}, []
    todo = [f]
    while todo:
        c = todo.pop()
        if c.kind is Kind.AND:
            todo.extend(reversed(c.children))
        elif c.kind is Kind.CONST:
            if not c.value:
                return None
        elif c.kind is Kind.LIT:
            v = 0 if c.negated else 1
            if fixed.setdefault(c.var, v) != v:
                return None
        else:
            rest.append(c)
    return fixed, rest


# ---------------------------------------------------------------------------
# 0/1 point sets


@dataclass(frozen=True)
class PointSet01:
    """A finite set of 0/1 points in fixed dimension, sorted and deduplicated."""

    n: int
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return tuple(int(v) for v in point) in set(self.points)


def point_set(n: int, points) -> PointSet01:
    cleaned = set()
    for p in points:
        q = tuple(int(v) for v in p)
        if len(q) != n:
            raise ValueError(f"point {q} has length {len(q)}, expected {n}")
        if any(v not in (0, 1) for v in q):
            raise ValueError(f"point {q} is not 0/1")
        cleaned.add(q)
    return PointSet01(n, tuple(sorted(cleaned)))


ENUM_LIMIT = 20


def enumerate_set(f: Formula) -> PointSet01:
    """All 0/1 points satisfying f, by exhaustive evaluation."""
    if f.n > ENUM_LIMIT:
        raise ValueError(f"dimension {f.n} exceeds enumeration limit {ENUM_LIMIT}")
    pts = [p for p in itertools.product((0, 1), repeat=f.n) if f._eval(p)]
    return PointSet01(f.n, tuple(pts))


def minterm_dnf(ps: PointSet01) -> Formula:
    """Disjunction of one full conjunction per point; empty set gives false."""
    n = ps.n
    terms = []
    for p in ps.points:
        parts = [lit(i + 1, n, negated=(p[i] == 0)) for i in range(n)]
        terms.append(and_all(parts, n))
    return or_all(terms, n)


# ---------------------------------------------------------------------------
# generators


def covering_cnf(rows) -> Formula:
    """CNF for a 0/1 covering system: one clause OR_{j: A[i][j]=1} x_j per row.

    Rows must be nonempty 0/1 vectors of equal length; a zero row has no
    satisfying clause and is rejected.
    """
    rows = [tuple(int(v) for v in r) for r in rows]
    if not rows:
        raise ValueError("covering matrix has no rows")
    n = len(rows[0])
    clauses = []
    for idx, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {idx + 1} has length {len(r)}, expected {n}")
        if any(v not in (0, 1) for v in r):
            raise ValueError(f"row {idx + 1} is not 0/1")
        ones = [j + 1 for j, v in enumerate(r) if v == 1]
        if not ones:
            raise ValueError(f"row {idx + 1} is all zeros")
        clauses.append(or_all([lit(j, n) for j in ones], n))
    return and_all(clauses, n)


def threshold_formula(k: int, m: int) -> Formula:
    """Monotone formula over x_1 .. x_m that is true iff at least k inputs are 1.

    k = 1 gives the plain OR chain and k = m the plain AND chain; otherwise
    the variable block is halved and the formula branches on how many of the
    k ones land in the first half, absorbing constant arms.  k <= 0 gives
    the constant true, k > m the constant false.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    return _thr(k, 1, m, m)


def _thr(k: int, lo: int, hi: int, n: int) -> Formula:
    count = hi - lo + 1
    if k <= 0:
        return const(True, n)
    if k > count:
        return const(False, n)
    if k == 1:
        return or_all([lit(i, n) for i in range(lo, hi + 1)], n)
    if k == count:
        return and_all([lit(i, n) for i in range(lo, hi + 1)], n)
    mid = lo + (count + 1) // 2 - 1
    arms = []
    for j in range(k + 1):
        a = _thr(j, lo, mid, n)
        b = _thr(k - j, mid + 1, hi, n)
        if (a.kind is Kind.CONST and not a.value) or (b.kind is Kind.CONST and not b.value):
            continue
        if a.kind is Kind.CONST:
            arms.append(b)
        elif b.kind is Kind.CONST:
            arms.append(a)
        else:
            arms.append(land(a, b))
    return or_all(arms, n)


def substitute(f: Formula, mapping, n: int) -> Formula:
    """Rename variables: x_k becomes x_{mapping[k-1]} in ambient dimension n.

    The mapping must cover every variable of f; it may be many-to-one, which
    identifies variables (duplicate collapse is semantic, not syntactic).
    """
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != f.n:
        raise ValueError(f"mapping has length {len(mapping)}, expected {f.n}")
    for k, target in enumerate(mapping):
        if not 1 <= target <= n:
            raise ValueError(f"mapping sends x{k + 1} to x{target}, out of range 1..{n}")
    return _subst(f, mapping, n)


def _subst(f: Formula, mapping, n: int) -> Formula:
    k = f.kind
    if k is Kind.LIT:
        return lit(mapping[f.var - 1], n, negated=f.negated)
    if k is Kind.CONST:
        return const(f.value, n)
    return _node(k, n, tuple(_subst(c, mapping, n) for c in f.children))
