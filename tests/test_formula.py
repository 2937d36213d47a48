import itertools
import random

import pytest

from formlift import formula as fm


def test_parse_precedence_and_round_trip():
    f = fm.parse("x1 | x2 & x3")
    assert f.kind is fm.Kind.OR
    assert f.children[1].kind is fm.Kind.AND
    g = fm.parse("(x1 | x2) & x3")
    assert g.kind is fm.Kind.AND
    for text in ("x1", "!x2 & x1", "!(x1 & !x2)", "x1 | x2 | x3", "0", "1",
                 "((x1)) & (x2 | !x3)"):
        f = fm.parse(text, 3)
        assert fm.parse(f.to_text(), 3) == f


def test_parse_chains_left_associated():
    # a chain is one node with its operands in reading order; a parenthesised
    # operand of the same kind after the first keeps its own node
    f = fm.parse("x1 | x2 | x3")
    assert f.kind is fm.Kind.OR and [c.var for c in f.children] == [1, 2, 3]
    assert fm.parse("(x1 | x2) | x3") == f == fm.or_all([fm.lit(i, 3) for i in (1, 2, 3)], 3)
    g = fm.parse("x1 & x2 & x3 & x1")
    assert g.kind is fm.Kind.AND and [c.var for c in g.children] == [1, 2, 3, 1]
    h = fm.parse("x1 | (x2 | x3)")
    assert [c.kind for c in h.children] == [fm.Kind.LIT, fm.Kind.OR]
    assert h.to_text() == "x1 | (x2 | x3)"


def test_parse_errors_carry_position():
    with pytest.raises(fm.ParseError):
        fm.parse("x1 &")
    with pytest.raises(fm.ParseError):
        fm.parse("x1 x2")
    with pytest.raises(fm.ParseError):
        fm.parse("")
    with pytest.raises(fm.ParseError):
        fm.parse("x9", 3)
    with pytest.raises(fm.ParseError):
        fm.parse("x0")


def test_negation_folds_into_literal():
    f = fm.parse("!x2", 2)
    assert f.kind is fm.Kind.LIT and f.negated
    assert f.is_reduced()


def _random_tree(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.25:
        return fm.lnot(_random_tree(rng, n, depth - 1))
    op = fm.land if roll < 0.625 else fm.lor
    return op(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))


def test_reduce_preserves_evaluation_and_size():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        f = _random_tree(rng, n, 4)
        g = fm.reduce(f)
        assert g.is_reduced()
        assert g.size == f.size
        for p in itertools.product((0, 1), repeat=n):
            assert f.evaluate(p) == g.evaluate(p)
        assert fm.reduce(g) is g


def test_reduce_on_constants():
    assert fm.reduce(fm.parse("!1", 1)).evaluate((0,)) is False
    assert fm.reduce(fm.parse("!(0 | x1)", 1)).evaluate((0,)) is True


def test_round_trip_of_random_trees():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        f = _random_tree(rng, n, 4)
        assert fm.parse(f.to_text(), n) == f


def _random_gate_tree(rng, n, depth):
    """A tree built by the package's constructors: literals, constants, NOT,
    binary and longer AND/OR chains, and same-kind right operands."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return fm.const(rng.random() < 0.5, n)
        return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.2:
        return fm.lnot(_random_gate_tree(rng, n, depth - 1))
    parts = [_random_gate_tree(rng, n, depth - 1) for _ in range(rng.randint(2, 4))]
    if roll < 0.6:
        return rng.choice((fm.and_all, fm.or_all))(parts, n)
    op = rng.choice((fm.land, fm.lor))
    return op(parts[0], parts[1]) if rng.random() < 0.5 else op(parts[1], op(parts[0], parts[-1]))


def _chains_flat(f):
    """No AND/OR node anywhere in f has a first child of its own kind."""
    if f.kind in (fm.Kind.AND, fm.Kind.OR) and f.children[0].kind is f.kind:
        return False
    return all(_chains_flat(c) for c in f.children)


def test_every_built_chain_is_one_node():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 5)
        f = _random_gate_tree(rng, n, 4)
        g = fm.parse(f.to_text(), n)
        assert g == f
        mapping = [rng.randint(1, n + 1) for _ in range(n)]
        for built in (f, fm.reduce(f), fm.substitute(f, mapping, n + 1)):
            assert _chains_flat(built), built.to_text()


def test_enumerate_set_example():
    # (!x1 | x2) & (x1 | x3) holds exactly on 001, 011, 110, 111
    f = fm.parse("(!x1 | x2) & (x1 | x3)", 3)
    assert fm.enumerate_set(f).points == ((0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 1))


def test_enumerate_set_respects_limit():
    f = fm.lit(1, 21)
    with pytest.raises(ValueError):
        fm.enumerate_set(f)


def test_minterm_dnf_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        pts = [p for p in itertools.product((0, 1), repeat=3) if rng.random() < 0.5]
        if not pts:
            continue
        S = fm.point_set(3, pts)
        f = fm.minterm_dnf(S)
        assert f.is_reduced()
        assert fm.enumerate_set(f) == S


def test_minterm_dnf_empty_set_is_false():
    f = fm.minterm_dnf(fm.point_set(2, []))
    assert not any(f.evaluate(p) for p in itertools.product((0, 1), repeat=2))


def test_covering_cnf_matches_arithmetic():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [rng.randint(0, 1) for _ in range(n)]
            if not any(row):
                row[rng.randrange(n)] = 1
            rows.append(row)
        f = fm.covering_cnf(rows)
        assert f.is_monotone()
        for p in itertools.product((0, 1), repeat=n):
            want = all(sum(a * b for a, b in zip(row, p)) >= 1 for row in rows)
            assert f.evaluate(p) == want


def test_covering_cnf_rejects_zero_row():
    with pytest.raises(ValueError):
        fm.covering_cnf([[1, 0], [0, 0]])


def test_threshold_formula_shapes():
    assert fm.threshold_formula(1, 4).to_text() == "x1 | x2 | x3 | x4"
    assert fm.threshold_formula(3, 3).to_text() == "x1 & x2 & x3"
    assert fm.threshold_formula(2, 3).to_text() == "(x1 | x2) & x3 | x1 & x2"


def test_threshold_formula_semantics():
    for m in range(1, 7):
        for k in range(1, m + 1):
            f = fm.threshold_formula(k, m)
            assert f.is_monotone()
            for p in itertools.product((0, 1), repeat=m):
                assert f.evaluate(p) == (sum(p) >= k)


def test_threshold_formula_constant_edges():
    assert fm.threshold_formula(0, 3).kind is fm.Kind.CONST
    assert fm.threshold_formula(4, 3).evaluate((1, 1, 1)) is False


def test_substitute_identifies_variables():
    # x1 & x2 with both names sent to x3 becomes a formula equivalent to x3
    f = fm.parse("x1 & x2", 2)
    g = fm.substitute(f, (3, 3), 3)
    assert g.n == 3
    for p in itertools.product((0, 1), repeat=3):
        assert g.evaluate(p) == bool(p[2])


def test_substitute_validates_range():
    f = fm.parse("x1 & x2", 2)
    with pytest.raises(ValueError):
        fm.substitute(f, (1,), 2)
    with pytest.raises(ValueError):
        fm.substitute(f, (1, 5), 2)


def test_point_set_rejects_bad_points():
    with pytest.raises(ValueError):
        fm.point_set(2, [(0, 2)])
    with pytest.raises(ValueError):
        fm.point_set(2, [(0,)])


def test_size_counts_literals():
    assert fm.parse("x1 & (x1 | !x2)", 2).size == 3
    assert fm.parse("1", 2).size == 0


def _recursive_parse(text, n):
    """The grammar of the module docstring by plain recursive descent, for
    comparison with `parse`; builds each chain as a left fold of land/lor."""
    tokens, pos = fm._tokenize(text), [0]

    def take():
        pos[0] += 1
        return tokens[pos[0] - 1]

    def chain(operand, op, build):
        out = operand()
        while tokens[pos[0]][0] == op:
            take()
            out = build(out, operand())
        return out

    def factor():
        kind, value, at = take()
        if kind == "!":
            return fm.lnot(factor())
        if kind == "var":
            if not 1 <= value <= n:
                raise fm.ParseError(f"variable index x{value} out of range 1..{n}", at)
            return fm.lit(value, n)
        if kind == "const":
            return fm.const(value, n)
        if kind == "(":
            out = expr()
            kind, _, at = take()
            if kind != ")":
                raise fm.ParseError("expected ')'", at)
            return out
        raise fm.ParseError("expected '!', variable, constant or '('", at)

    def expr():
        return chain(lambda: chain(factor, "&", fm.land), "|", fm.lor)

    out = expr()
    if tokens[pos[0]][0] != "end":
        raise fm.ParseError("trailing input after formula", tokens[pos[0]][2])
    return out


def _outcome(parse, text, n):
    try:
        return parse(text, n)
    except fm.ParseError as exc:
        return str(exc)


def test_parse_matches_recursive_descent():
    # trees and error messages (with positions) of random texts, well formed
    # or mutated, agree with the grammar read by recursion
    rng = random.Random(23)
    pieces = ["x1", "x2", "x3", "x4", "0", "1", "!", "&", "|", "(", ")", " "]
    agreed = 0
    for _ in range(3000):
        text = _random_tree(rng, 3, 5).to_text()
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(pieces) + text[k + rng.randint(0, 2):]
        want = _outcome(_recursive_parse, text, 3)
        assert _outcome(fm.parse, text, 3) == want, text
        agreed += isinstance(want, fm.Formula)
    assert agreed > 1000


def test_parentheses_and_negations_cost_no_recursion():
    # nesting takes no Python frames; only text nested deeper than the
    # recursion limit is refused, since a tree that deep could not be walked
    plain = fm.parse("x1 | x2")
    assert fm.parse("(" * 900 + "x1 | x2" + ")" * 900) == plain
    assert fm.parse("!" * 900 + "x1") == fm.parse("x1")
    f = fm.parse("!" * 901 + "(x1 | x2)")
    for _ in range(901):
        assert f.kind is fm.Kind.NOT
        f = f.children[0]
    assert f == plain
    with pytest.raises(RecursionError):
        fm.parse("(" * 1001 + "x1" + ")" * 1001)
    with pytest.raises(RecursionError):
        fm.parse("!(" * 501 + "x1" + ")" * 501)
