import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlift import cli
from formlift import formula as fm
from formlift import hull
from formlift import lpsolve as lp
from formlift import polytope as pt
from formlift import verify as vf

F = Fraction


def test_cube_rows_and_projection():
    Q = pt.cube(3)
    assert Q.is_hrep
    assert len(Q.rows) == 6
    unit = [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    assert Q.xspace_rows() == [row for e in unit
                               for row in ((e, 0), (tuple(-v for v in e), -1))]


@pytest.mark.parametrize("text, empty_at", [
    ("x1 & x2 | x1 & !x3 | x2 & x3", 0),
    ("!x1 & x3 | x1 | x1 & x2 & x3 | x2 & !x3", 2),
], ids=["empty-first", "empty-middle"])
def test_or_chain_lifts_as_a_left_fold_of_unions(text, empty_at):
    # x1 + x2 <= 1 leaves no room for an arm that fixes x1 = x2 = 1
    Q = pt.with_xspace_rows(pt.cube(3), [((-1, -1, 0), -1)])
    phi = fm.parse(text, 3)
    ef, rep = pt.lift(phi, Q)
    lifted = [pt.lift(arm, Q) for arm in phi.children]
    assert len(lifted) == text.count("|") + 1
    assert [a.empty_marker for a, _ in lifted] == [i == empty_at for i in range(len(lifted))]
    want, elided = lifted[0][0], 0
    for arm, _ in lifted[1:]:
        elided += want.empty_marker or arm.empty_marker
        want = pt.balas_union(want, arm)
    assert (ef.rows, ef.proj) == (want.rows, want.proj)
    assert rep.elided_arms == elided == 1
    assert rep.emptiness == tuple(e for _, r in lifted for e in r.emptiness)
    assert f" or={len(lifted) - 1} " in rep.summary_line()


def test_from_hrep_appends_box_and_dedupes():
    Q = pt.from_hrep(2, [((1, 0), 0), ((1, 1), 1)])
    # the redundant x1 >= 0 collapses with the box row
    assert len(Q.rows) == 5


def test_from_hrep_rejects_bad_rows():
    with pytest.raises(ValueError):
        pt.from_hrep(2, [((1,), 0)])
    with pytest.raises(TypeError):
        pt.from_hrep(1, [((0.5,), 0)])


def test_face_restrict_pins_variable():
    Q = pt.face_restrict(pt.cube(2), 1, 1)
    assert lp.contains_point(Q, (1, 0)) and lp.contains_point(Q, (1, 1))
    assert not lp.contains_point(Q, (0, 0))
    assert len(Q.rows) == len(pt.cube(2).rows) + 2


def test_intersect_adds_tie_rows():
    A = pt.face_restrict(pt.cube(2), 1, 1)
    B = pt.face_restrict(pt.cube(2), 2, 0)
    C = pt.intersect(A, B)
    assert len(C.rows) == len(A.rows) + len(B.rows) + 2 * 2
    assert lp.contains_point(C, (1, 0))
    assert not lp.contains_point(C, (1, 1))


def test_balas_union_is_convex_hull():
    A = pt.face_restrict(pt.cube(2), 1, 0)  # segment x1 = 0
    B = pt.face_restrict(pt.cube(2), 2, 0)  # segment x2 = 0
    U = pt.balas_union(A, B)
    assert len(U.rows) == len(A.rows) + len(B.rows)
    assert lp.contains_point(U, (F(1, 2), F(1, 2)))  # midpoint of (0,1)-(1,0)
    assert not lp.contains_point(U, (1, 1))
    out = lp.optimize(U, (1, 1), "max")
    assert out.value == 1


def test_balas_union_no_multiplier_rows_needed():
    # scaled feasibility of box-rooted arms pins the multiplier: maxing and
    # minning any direction stays within the hull of the two arms
    rng = random.Random(2)
    A = pt.face_restrict(pt.cube(3), 1, 1)
    B = pt.face_restrict(pt.face_restrict(pt.cube(3), 2, 0), 3, 0)
    U = pt.balas_union(A, B)
    pts_a = [p for p in itertools.product((0, 1), repeat=3) if p[0] == 1]
    pts_b = [(0, 0, 0), (1, 0, 0)]
    verts = pts_a + pts_b
    for _ in range(25):
        c = [rng.randint(-3, 3) for _ in range(3)]
        best = max(sum(ci * vi for ci, vi in zip(c, v)) for v in verts)
        assert lp.optimize(U, c, "max").value == best


def test_empty_marker_shape():
    E = pt.empty_formulation(2)
    assert E.empty_marker
    assert E.rows == (((), 1, 1),)
    assert lp.is_empty(E)


def test_with_xspace_rows_cuts_the_set():
    ef, _ = pt.lift(fm.reduce(fm.parse("x1 | x2", 2)), pt.cube(2))
    cut = pt.with_xspace_rows(ef, [((1, 0), 1)])  # force x1 = 1 via x1 >= 1
    assert lp.contains_point(cut, (1, 0))
    assert not lp.contains_point(cut, (0, 1))
    # the point map keeps exactly the witnesses the cut leaves inside
    assert [p for p, _ in cut.witnesses] == [(1, 0), (1, 1)]
    assert [w for w in ef.witnesses if w[0][0] == 1] == list(cut.witnesses)


def test_balas_union_moves_between_projection_offsets():
    # arm A is x1 = 1 - y with y in [0, 1/2], so x1 in [1/2, 1]; arm B is the
    # face x1 = 0.  Their offsets differ, which the weight column must carry.
    A = pt.from_text("ef\nxvars 1\nyvars 1\nineq 1 >= 0\nineq -1 >= -1/2\nproj 1 1 -1\n")
    U = pt.balas_union(A, pt.face_restrict(pt.cube(1), 1, 0))
    assert lp.optimize(U, (1,), "min").value == 0
    assert lp.optimize(U, (1,), "max").value == 1
    for x, inside in ((F(-1, 4), False), (0, True), (F(1, 4), True), (F(3, 4), True),
                      (1, True), (F(5, 4), False)):
        assert lp.contains_point(U, (x,)) == inside


def _brute_set(phi, n):
    return {p for p in itertools.product((0, 1), repeat=n) if phi.evaluate(p)}


def test_lift_matches_integer_points_small():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 3)
        phi = fm.reduce(_random_reduced(rng, n))
        ef, rep = pt.lift(phi, pt.cube(n))
        assert rep.within_bound
        want = _brute_set(phi, n)
        for p in itertools.product((0, 1), repeat=n):
            assert lp.contains_point(ef, p) == (p in want)
        assert ef.empty_marker == (len(want) == 0)


def _random_reduced(rng, n):
    size = rng.randint(1, 6)
    def build(s):
        if s == 1:
            return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.4)
        left = rng.randint(1, s - 1)
        op = fm.land if rng.random() < 0.5 else fm.lor
        return op(build(left), build(s - left))
    return build(size)


def test_the_row_bound_counts_constant_leaves():
    # a constant leaf takes rows like a literal, so the bound counts leaves,
    # and_count + or_count + 1, which is the size when no constant occurs
    rng = random.Random(5)
    constants = 0
    for _ in range(400):
        n = rng.randint(1, 3)

        def build(s):
            if s == 1:
                if rng.random() < 0.3:
                    return fm.const(rng.random() < 0.5, n)
                return fm.lit(rng.randint(1, n), n, negated=rng.random() < 0.4)
            left = rng.randint(1, s - 1)
            op = fm.land if rng.random() < 0.5 else fm.lor
            return op(build(left), build(s - left))
        phi = build(rng.randint(1, 6))
        ef, rep = pt.lift(phi, pt.cube(n))
        assert rep.within_bound, (phi.to_text(), rep.summary_line())
        leaves = rep.and_count + rep.or_count + 1
        constants += leaves > phi.size
        if leaves == phi.size:
            assert rep.row_bound == phi.size * (2 * n + 2) + 2 * n * rep.and_count
    assert constants > 100


def test_lift_requires_reduced_formula():
    with pytest.raises(ValueError):
        pt.lift(fm.lnot(fm.parse("x1 & x2", 2)), pt.cube(2))


def test_lift_size_example():
    # (!x1 | x2) & (x1 | x3) over the 3-cube: 4 leaf faces of 8 rows each,
    # two unions, one intersection adding 2n rows
    phi = fm.parse("(!x1 | x2) & (x1 | x3)", 3)
    ef, rep = pt.lift(phi, pt.cube(3))
    assert len(ef.rows) == 38
    assert rep.ef_rows == 38
    assert rep.row_bound == 38
    assert rep.and_count == 1 and rep.or_count == 2


def test_lift_marker_iff_empty():
    phi = fm.reduce(fm.parse("x1 & !x1", 1))
    ef, rep = pt.lift(phi, pt.cube(1))
    assert ef.empty_marker
    phi2 = fm.reduce(fm.parse("(x1 & !x1) | x2", 2))
    ef2, rep2 = pt.lift(phi2, pt.cube(2))
    assert not ef2.empty_marker
    assert rep2.elided_arms == 1
    assert not lp.contains_point(ef2, (0, 0))
    assert lp.contains_point(ef2, (1, 1))


def test_lift_collapse_batches_blocks():
    phi = fm.parse("x1 & x2 & x3 | x4 & x5 & x6", 6)
    ef, rep = pt.lift(phi, pt.cube(6))
    # two pure blocks of 12 + 6 rows unioned, far below the naive bound
    assert rep.blocks == 2
    assert rep.ef_rows == 2 * (12 + 6)
    # the block-free construction, one restriction per literal
    assert vf._naive_rows(phi, len(pt.cube(6).rows), 6) > rep.ef_rows


def test_lift_emptiness_decisions_recorded():
    phi = fm.parse("(!x1 | x2) & (x1 | x3)", 3)
    _, rep = pt.lift(phi, pt.cube(3))
    assert len(rep.emptiness) == rep.blocks + 1  # one intersection check
    assert all(d.endswith(":nonempty") for d in rep.emptiness)


def test_lift_of_marker_base_passes_through():
    ef, rep = pt.lift(fm.parse("x1", 1), pt.empty_formulation(1))
    assert ef.empty_marker


def test_iterate_lift_rounds():
    phi = fm.reduce(fm.parse("(x1 | x2) & (!x1 | !x2)", 2))
    assert pt.iterate_lift(phi, pt.cube(2), 0) is not None
    q0 = pt.iterate_lift(phi, pt.cube(2), 0)
    assert q0.is_hrep and len(q0.rows) == 4
    ef1, reps = pt.iterate_lift(phi, pt.cube(2), 2, with_reports=True)
    assert len(reps) == 2
    assert reps[0].route == "hull"
    assert reps[1].route == "ef"
    # after two rounds only the hull of {01, 10} remains
    assert lp.contains_point(ef1, (F(1, 2), F(1, 2)))
    assert lp.optimize(ef1, (1, 1), "min").value == 1
    assert lp.optimize(ef1, (1, 1), "max").value == 1


def test_iterate_lift_compaction_agrees_with_plain():
    rng = random.Random(31)
    for _ in range(10):
        phi = fm.reduce(_random_reduced(rng, 3))
        a = pt.iterate_lift(phi, pt.cube(3), 2)
        b = pt.lift(phi, pt.lift(phi, pt.cube(3))[0])[0]
        assert a.empty_marker == b.empty_marker
        if a.empty_marker:
            continue
        for _ in range(8):
            c = [rng.randint(-2, 2) for _ in range(3)]
            assert lp.optimize(a, c, "min").value == lp.optimize(b, c, "min").value


def test_iterate_lift_stops_at_an_empty_hull_round():
    ef, reps = pt.iterate_lift(fm.parse("x1 & !x1", 2), pt.cube(2), 2, with_reports=True)
    assert ef.empty_marker
    assert [r.route for r in reps] == ["hull"] and reps[0].ef_rows == 1


def test_iterate_lift_rejects_negative():
    with pytest.raises(ValueError):
        pt.iterate_lift(fm.parse("x1", 1), pt.cube(1), -1)


def test_text_round_trip_hrep():
    Q = pt.from_hrep(2, [((1, 1), 1), ((F(1, 2), F(-1, 3)), F(-2, 7))])
    back = pt.from_text(pt.to_text(Q))
    assert back == Q


def test_text_round_trip_lifted():
    phi = fm.reduce(fm.parse("x1 | !x2", 2))
    ef, _ = pt.lift(phi, pt.cube(2))
    back = pt.from_text(pt.to_text(ef))
    assert back.n == ef.n and back.ydim == ef.ydim
    assert back.rows == ef.rows and back.proj == ef.proj
    assert back.witnesses == ef.witnesses and len(ef.witnesses) == 3


def test_text_round_trip_marker():
    E = pt.empty_formulation(3)
    back = pt.from_text(pt.to_text(E))
    assert back.empty_marker and back.n == 3


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        pt.from_text("not an ef\n")
    with pytest.raises(ValueError):
        pt.from_text("ef\nxvars 2\nyvars 0\nineq 1 >= 0\n")


@pytest.mark.parametrize("family,rounds", [
    (("bz", "--n", "4"), 2),
    (("bz", "--n", "5"), 1),
    (("matching-k4",), 1),
])
def test_text_round_trip_of_written_lift_files(tmp_path, capsys, family, rounds):
    assert cli.dispatch(["gen", *family, "--out", str(tmp_path)]) == 0
    name = capsys.readouterr().out.split()[1]
    formula = tmp_path / f"{name}.bool"
    ef = tmp_path / "lift.ef"
    assert cli.dispatch(["lift", "--formula", str(formula), "--rounds", str(rounds),
                         "--out", str(ef)]) == 0
    text = ef.read_text()
    back = pt.from_text(text)
    assert pt.to_text(back) == text
    phi = fm.reduce(fm.parse(formula.read_text()))
    Q = pt.iterate_lift(phi, pt.cube(phi.n), rounds)
    assert back == Q
    assert (back.rows, back.proj, back.witnesses) == (Q.rows, Q.proj, Q.witnesses)
    # a lifted file lists its rows as pairs only; spelled out densely it reads the same
    assert not any(line.startswith("ineq ") for line in text.splitlines())
    dense = pt.from_text(_dense_text(text))
    assert (dense, dense.witnesses) == (back, back.witnesses)


def _dense_text(text):
    """text with each `row` line spelled out as a dense `ineq` line."""
    d = int(text.splitlines()[2].split()[1])
    out = []
    for line in text.splitlines():
        if line.startswith("row "):
            *pairs, ge, rhs = line.split()[1:]
            coeffs = ["0"] * d
            for pair in pairs:
                j, c = pair.split(":")
                coeffs[int(j)] = c
            line = " ".join(["ineq", *coeffs, ge, rhs])
        out.append(line + "\n")
    return "".join(out)


@pytest.mark.parametrize("text,message", [
    ("ef\nxvars 2\nyvars 0\nineq 1/0 1 >= 0\nineq 1/0 0 >= 1\n", "ineq: bad rational '1/0'"),
    ("ef\nxvars 2\nyvars 0\nineq 1 2/3 >= 0\nineq 2/3 1/0 >= 0\nineq 1/0 1/0 >= 0\n",
     "ineq: bad rational '1/0'"),
    ("ef\nxvars 1\nyvars 2\nineq 1 1 >= 0\nproj 1 0 1/0 1/0\n", "proj: bad rational '1/0'"),
    ("ef\nxvars 1\nyvars 2\nineq x 1 >= 0\nineq x x >= 0\nproj 1 0 1 0\n",
     "ineq: bad rational 'x'"),
    ("ef\nxvars 1\nyvars 2\nineq 1 1 >= 0\nproj x 0 1 0\n", "bad proj index 'x'"),
])
def test_from_text_repeated_bad_token_same_error(text, message):
    with pytest.raises(ValueError) as info:
        pt.from_text(text)
    assert str(info.value) == message


def test_from_text_reads_unlike_spellings_of_one_value():
    Q = pt.from_text("ef\nxvars 1\nyvars 3\nineq 00 -0/4 2/4 >= -0\nproj 1 3/3 1/2 0 +1/2\n")
    assert Q.rows == ((((2, 1),), 0, 2),)
    assert Q.proj == ((((0, F(1, 2)), (2, F(1, 2))), F(1)),)


_coef = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def _sparse_expr(draw, width):
    """Sorted (index, coef) pairs with nonzero coefficients."""
    vals = draw(st.dictionaries(st.integers(0, width - 1), _coef, max_size=width))
    return tuple((j, c) for j, c in sorted(vals.items()) if c)


@st.composite
def _formulations(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((0, n, n + 1, n + 3)))
    if d == 0:
        rows = draw(st.lists(st.tuples(st.lists(_coef, min_size=n, max_size=n), _coef),
                             max_size=6))
        return pt.from_hrep(n, rows)
    rows = draw(st.lists(st.tuples(_sparse_expr(d), _coef), max_size=8))
    proj = draw(st.lists(st.tuples(_sparse_expr(d), _coef), min_size=n, max_size=n))
    Q = pt.ExtendedFormulation(n, d, lp._int_rows(rows), tuple(proj))
    # an identity projection would be written as x-space rows, without box rows
    assume(not Q.is_hrep)
    return Q


@settings(max_examples=150, deadline=None)
@given(_formulations())
def test_text_round_trip_property(Q):
    text = pt.to_text(Q)
    back = pt.from_text(text)
    assert pt.to_text(back) == text
    if Q.is_hrep:
        # x-space rows are read through from_hrep, whose box rows are already there
        assert text.splitlines()[2] == "yvars 0"
        assert back == Q
    else:
        assert (back.n, back.ydim, back.rows, back.proj) == (Q.n, Q.ydim, Q.rows, Q.proj)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 10**6), st.booleans())
def test_lift_files_read_back_their_int_rows(n, size, seed, cut):
    phi = vf.random_reduced_formula(n, size, neg_density=0.4, seed=seed)
    # a cut over halves and thirds gives rows whose scale is not 1
    base = pt.from_hrep(n, [([F(1, 2)] + [F(-1, 3)] * (n - 1), F(-1, 6))] if cut else [])
    Q, _ = pt.lift(phi, base)
    if Q.is_hrep:  # x-space rows are read back with the box rows appended
        return
    back = pt.from_text(pt.to_text(Q))
    assert back.rows == Q.rows and back.proj == Q.proj
    assert back.witnesses == Q.witnesses


# Tokens the parser must read as Fraction(tok) reads them, zeros included.
_TOKENS = ("0", "00", "-0", "0/3", "+0", "1", "-1", "2", "1.5", "-0.25", "2/4", "-3/6",
           "7/6", "+1/2", "12", "-5/3")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_ineq_lines_read_like_fraction_rows(width, data):
    lines = data.draw(st.lists(st.lists(st.sampled_from(_TOKENS), min_size=width + 1,
                                        max_size=width + 1), max_size=6))
    text = "ef\nxvars 1\nyvars %d\n" % width + "".join(
        "ineq " + " ".join(toks[:-1]) + " >= " + toks[-1] + "\n" for toks in lines)
    text += "proj 1 0 " + " ".join(["1"] + ["0"] * (width - 1)) + "\n"
    rational = [(tuple((j, F(t)) for j, t in enumerate(toks[:-1]) if F(t)), F(toks[-1]))
                for toks in lines]
    assert pt._parse_text(text)[2] == lp._int_rows(rational)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_row_lines_read_like_fraction_rows(width, data):
    lines = []
    for _ in range(data.draw(st.integers(0, 6))):
        cols = data.draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
        toks = data.draw(st.lists(st.sampled_from(_TOKENS), min_size=len(cols) + 1,
                                  max_size=len(cols) + 1))
        lines.append((sorted(cols), toks))
    text = "ef\nxvars 1\nyvars %d\n" % width + "".join(
        "row" + "".join(f" {j}:{t}" for j, t in zip(cols, toks)) + " >= " + toks[-1] + "\n"
        for cols, toks in lines)
    text += "proj 1 0 " + " ".join(["1"] + ["0"] * (width - 1)) + "\n"
    rational = [(tuple((j, F(t)) for j, t in zip(cols, toks) if F(t)), F(toks[-1]))
                for cols, toks in lines]
    assert pt._parse_text(text)[2] == lp._int_rows(rational)


def test_zero_spellings_are_dropped_and_decimals_read_exactly():
    Q = pt.from_text("ef\nxvars 1\nyvars 4\nineq 0/3 -0 00 1.5 >= 0/3\n"
                     "proj 1 -0 00 0/3 -0 1.5\n")
    assert Q.rows == ((((3, 3),), 0, 2),)
    assert Q.proj == ((((3, F(3, 2)),), F(0)),)
    Q = pt.from_text("ef\nxvars 2\nyvars 0\nineq 1.5 0/3 >= 00\n")
    assert Q.rows[0] == (((0, 3),), 0, 2)


BAD_INEQ = {
    "coefficient": ("ineq 1 x >= 0", "ineq: bad rational 'x'"),
    "zero-denominator": ("ineq 1 1/0 >= 0", "ineq: bad rational '1/0'"),
    "right-side": ("ineq 1 1 >= 1/x", "ineq: bad rational '1/x'"),
    "width": ("ineq 1 1 1 >= 0", "bad ineq line: 'ineq 1 1 1 >= 0'"),
}


@pytest.mark.parametrize("yvars", [0, 2])
@pytest.mark.parametrize("name", BAD_INEQ)
def test_bad_ineq_lines_keep_their_messages(tmp_path, capsys, yvars, name):
    line, message = BAD_INEQ[name]
    proj = "proj 1 0 1 0\nproj 2 0 0 1\n" if yvars else ""
    text = f"ef\nxvars 2\nyvars {yvars}\nineq 1 0 >= 0\n{line}\n{proj}"
    with pytest.raises(ValueError) as info:
        pt.from_text(text)
    assert str(info.value) == message
    path = tmp_path / "bad.ef"
    path.write_text(text)
    assert cli.dispatch(["member", "--ef", str(path), "--point", "0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"formlift: {path}: {message}\n"


BAD_ROW = {
    "xspace": ("ef\nxvars 2\nyvars 0\nrow 0:1 >= 0\n", "row line in an x-space formulation"),
    "column-high": ("row 2:1 >= 0", "bad row pair '2:1'"),
    "column-negative": ("row -1:1 >= 0", "bad row pair '-1:1'"),
    "column-decimal": ("row 1.0:1 >= 0", "bad row pair '1.0:1'"),
    "column-missing": ("row :1 >= 0", "bad row pair ':1'"),
    "colon-missing": ("row 0:1 1 >= 0", "bad row pair '1'"),
    "column-repeated": ("row 0:1 0:2 >= 0", "bad row pair '0:2'"),
    "column-decreasing": ("row 1:1 0:2 >= 0", "bad row pair '0:2'"),
    "value": ("row 0:1 1:x >= 0", "row: bad rational 'x'"),
    "value-empty": ("row 0: >= 0", "row: bad rational ''"),
    "zero-denominator": ("row 1:1/0 >= 0", "row: bad rational '1/0'"),
    "exponent": ("row 0:1e9999999 >= 0", "row: bad rational '1e9999999'"),
    "right-side": ("row 0:1 >= 1/x", "row: bad rational '1/x'"),
    "ge-missing": ("row 0:1 1:1 0", "bad row line: 'row 0:1 1:1 0'"),
    "ge-last": ("row 0:1 >=", "bad row line: 'row 0:1 >='"),
    "bare": ("row", "bad row line: 'row'"),
}


@pytest.mark.parametrize("name", BAD_ROW)
def test_bad_row_lines_are_one_line_errors(tmp_path, capsys, name):
    line, message = BAD_ROW[name]
    text = line if line.startswith("ef") else (
        f"ef\nxvars 2\nyvars 2\nrow 0:1 >= 0\n{line}\nproj 1 0 1 0\nproj 2 0 0 1\n")
    if message.startswith("bad row pair"):
        message += ": need column:value, columns increasing in 0..1"
    with pytest.raises(ValueError) as info:
        pt.from_text(text)
    assert str(info.value) == message
    path = tmp_path / "bad.ef"
    path.write_text(text)
    assert cli.dispatch(["optimize", "--ef", str(path), "--min", "--obj=1,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"formlift: {path}: {message}\n"


def test_rationals_read_with_a_capped_exponent():
    assert pt._parse_frac("1e4000", "x") == 10 ** 4000
    assert pt._parse_frac("-2.5E-4000", "x") == F(-25, 10 ** 4001)
    assert pt._parse_frac("1_0e1_0", "x") == 10 ** 11
    for tok in ("1e4301", "1e-4301", "1e9999999", "1e" + "9" * 5000, "1e", "1e1.5"):
        with pytest.raises(ValueError, match=r"^x: bad rational"):
            pt._parse_frac(tok, "x")
    Q = pt.from_text("ef\nxvars 1\nyvars 1\nrow 0:1e4000 >= 1e-4000\nproj 1 0 1\n")
    assert Q.rows == ((((0, 10 ** 8000),), 1, 10 ** 4000),)
