import contextlib
import io
import pathlib
import re
import shlex
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlift import cli
from formlift import formula as fm
from formlift import lpsolve as lp
from formlift import polytope as pt


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_and_reduce(tmp_path, capsys):
    f = tmp_path / "f.bool"
    f.write_text("!(x1 & !x2)\n")
    code, out, _ = run(capsys, "parse", "--formula", str(f))
    assert code == 0 and out.strip() == "!(x1 & !x2)"
    code, out, _ = run(capsys, "reduce", "--formula", str(f))
    assert code == 0 and out.strip() == "!x1 | x2"


def test_lift_optimize_round_trip(tmp_path, capsys):
    f = tmp_path / "phi.bool"
    f.write_text("(x1 | x2) & (x2 | x3) & (x1 | x3)\n")
    ef = tmp_path / "lift.ef"
    code, out, err = run(capsys, "lift", "--formula", str(f),
                         "--polytope", "cube", "--rounds", "1",
                         "--out", str(ef))
    assert code == 0
    assert "round 1:" in err
    # the written file re-parses to a formulation with identical optima
    Q = pt.from_text(ef.read_text())
    code, out, _ = run(capsys, "optimize", "--ef", str(ef), "--min",
                       "--obj", "1,1,1")
    assert code == 0
    from formlift import lpsolve as lp
    assert Fraction(out.strip()) == lp.optimize(Q, (1, 1, 1), "min").value
    assert Fraction(out.strip()) == Fraction(3, 2)


def test_lift_writes_stdout_without_out(tmp_path, capsys):
    f = tmp_path / "phi.bool"
    f.write_text("x1\n")
    code, out, _ = run(capsys, "lift", "--formula", str(f), "--rounds", "1")
    assert code == 0
    assert out.startswith("ef\n")


def test_optimize_spec_pipeline(tmp_path, capsys):
    f = tmp_path / "bz5.bool"
    code, out, _ = run(capsys, "gen", "bz", "--n", "5", "--out", str(tmp_path))
    assert code == 0 and out.strip() == "instance bz5 n=5"
    ef = tmp_path / "bz5_l2.ef"
    code, _, _ = run(capsys, "lift", "--formula", str(tmp_path / "bz5.bool"),
                     "--polytope", "cube", "--rounds", "2", "--out", str(ef))
    assert code == 0
    code, out, _ = run(capsys, "optimize", "--ef", str(ef), "--min",
                       "--obj", "1,1,1,1,1")
    assert code == 0
    assert out.strip() == "2"


def test_member_exit_codes(tmp_path, capsys):
    f = tmp_path / "phi.bool"
    f.write_text("x1 & x2\n")
    ef = tmp_path / "l.ef"
    run(capsys, "lift", "--formula", str(f), "--out", str(ef))
    code, out, _ = run(capsys, "member", "--ef", str(ef), "--point", "1,1")
    assert code == 0 and out.strip() == "inside"
    code, out, _ = run(capsys, "member", "--ef", str(ef), "--point", "1/2,1")
    assert code == 1 and out.strip() == "outside"


def test_measure_example(capsys):
    code, out, _ = run(capsys, "measure", "--ineq", "x1 + x5 >= 1", "--n", "5")
    assert code == 0 and out.strip() == "pitch=1 notch=4"


def test_measure_with_coefficients(capsys):
    code, out, _ = run(capsys, "measure", "--ineq", "2*x1 - x2 >= 1", "--n", "2")
    assert code == 0
    assert out.strip() == "pitch=2 notch=2"


@pytest.mark.parametrize("ineq", [
    "3/2 x1 + x2 >= 1",
    "1.5 x1 + x2 >= 1",
    "1.5*x1 + x2 >= 1",
    "1.50x1 + x2 >= 1.0",
    "0.15e1 x1 + x2 >= 1",
    "x2 + 1.5 x1 >= 1",
], ids=["fraction", "decimal", "decimal-star", "decimal-glued", "exponent", "decimal-second"])
def test_measure_reads_decimal_coefficients(capsys, ineq):
    code, out, err = run(capsys, "measure", "--ineq", ineq, "--n", "2")
    assert (code, out, err) == (0, "pitch=1 notch=1\n", "")


def test_measure_reads_leading_signs(capsys):
    code, out, _ = run(capsys, "measure", "--ineq", "-x1 + x2 >= 0", "--n", "2")
    assert (code, out) == run(capsys, "measure", "--ineq", "x2 - x1 >= 0", "--n", "2")[:2]
    assert code == 0
    code, out, _ = run(capsys, "measure", "--ineq", "+x1 >= 1", "--n", "1")
    assert code == 0 and out.strip() == "pitch=1 notch=1"


def test_measure_rejects_bad_input(capsys):
    code, _, err = run(capsys, "measure", "--ineq", "x1 <= 1", "--n", "1")
    assert code == 2 and "formlift:" in err
    code, _, err = run(capsys, "measure", "--ineq", "x9 >= 1", "--n", "2")
    assert code == 2


def test_measure_zero_denominator_is_a_diagnostic(capsys):
    code, out, err = run(capsys, "measure", "--ineq", "1/0 x1 >= 1", "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith("formlift: ") and len(err.splitlines()) == 1


def test_parser_is_built_once(capsys):
    run(capsys, "measure", "--ineq", "x1 >= 1", "--n", "1")
    built = cli._parser.cache_info().misses
    run(capsys, "measure", "--ineq", "x1 >= 1", "--n", "1")
    assert cli._parser.cache_info().misses == built == 1


def test_notchset_from_points_and_formula(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 1 0\n1 0 1\n0 1 1\n1 1 1\n")
    code, out, _ = run(capsys, "notchset", "--points", str(pts))
    assert code == 0 and out.strip() == "notch=2"
    f = tmp_path / "f.bool"
    f.write_text("x1 & x2 & x3\n")
    code, out, _ = run(capsys, "notchset", "--formula", str(f))
    assert code == 0 and out.strip() == "notch=3"


def test_closure_exit_codes(tmp_path, capsys):
    f = tmp_path / "tri.bool"
    f.write_text("(x1 | x2) & (x2 | x3) & (x1 | x3)\n")
    code, out, _ = run(capsys, "closure", "--mode", "pitch", "--level", "1",
                       "--formula", str(f), "--rounds", "1")
    assert code == 0 and "violation=none" in out
    cube_file = tmp_path / "cube.ef"
    cube_file.write_text(pt.to_text(pt.cube(3)))
    code, out, _ = run(capsys, "closure", "--mode", "pitch", "--level", "1",
                       "--formula", str(f), "--ef", str(cube_file))
    assert code == 1 and "violated at" in out


def test_gen_families(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "matching-k4", "--out", str(tmp_path))
    assert code == 0 and out.strip() == "instance matching-k4 n=6"
    assert (tmp_path / "matching-k4.bool").exists()
    assert (tmp_path / "matching-k4.ef").exists()
    m = tmp_path / "m.txt"
    m.write_text("1 1 0\n0 1 1\n")
    code, out, _ = run(capsys, "gen", "covering", "--matrix", str(m),
                       "--out", str(tmp_path))
    assert code == 0 and out.strip() == "instance covering n=3"
    code, out, _ = run(capsys, "gen", "bounded", "--matrix", str(m),
                       "--b", "2,1", "--out", str(tmp_path))
    assert code == 0
    code, _, err = run(capsys, "gen", "bz")
    assert code == 2 and "needs --n" in err


def test_gen_bounded_rejects_fractional_thresholds(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("1 1 0\n0 1 1\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "gen", "bounded", "--matrix", str(m),
                         "--b", "3/2,5/4", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("formlift: ") and len(err.splitlines()) == 1
    assert not out_dir.exists()


def test_verify_subcommand_several_formulas(tmp_path, capsys):
    run(capsys, "gen", "bz", "--n", "4", "--out", str(tmp_path))
    run(capsys, "gen", "matching-k4", "--out", str(tmp_path))
    bz = str(tmp_path / "bz4.bool")
    k4 = str(tmp_path / "matching-k4.bool")
    code, out, _ = run(capsys, "verify", "sandwich", "--formula", k4, bz)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # one line per formula, in argument order
    assert lines[0].startswith("check=sandwich instance=matching-k4 verdict=pass")
    assert lines[1].startswith("check=sandwich instance=bz4 verdict=pass")
    with pytest.raises(SystemExit) as exc:  # no --jobs option: a usage error
        cli.dispatch(["verify", "sandwich", "--formula", bz, "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_size_rejects_covering_m_below_one(tmp_path, capsys):
    f = tmp_path / "f.bool"
    f.write_text("x1 & x2\n")
    for m in ("0", "-2"):
        code, out, err = run(capsys, "verify", "size", "--formula", str(f),
                             "--covering-m", m)
        assert code == 2 and out == ""
        assert err.startswith("formlift: ") and len(err.splitlines()) == 1
        assert "covering_m must be at least 1" in err
    code, out, _ = run(capsys, "verify", "size", "--formula", str(f),
                       "--covering-m", "1")
    assert code == 0 and "covering_yardstick=8 covering_ratio=1" in out


@pytest.mark.parametrize("text, line", [
    ("1", "check=size instance=one verdict=pass n=1 size=0 ef_rows=2 bound=4 "
          "plain_product=0 naive_rows=2 saved=0 blocks=1"),
    ("(x1 | 0) & (x2 | 1)", "check=size instance=one verdict=pass n=2 size=2 ef_rows=20 "
                            "bound=28 plain_product=8 naive_rows=21 saved=1 blocks=3"),
], ids=["true", "mixed"])
def test_verify_size_counts_constant_leaves(tmp_path, capsys, text, line):
    f = tmp_path / "one.bool"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "verify", "size", "--formula", str(f))
    assert (code, out, err) == (0, line + "\n", "")


def test_verify_complete_example(tmp_path, capsys):
    f = tmp_path / "any3.bool"
    f.write_text("(x1 & !x2) | (x2 & x3)\n")
    code, out, _ = run(capsys, "verify", "complete", "--formula", str(f),
                       "--rounds", "3")
    assert code == 0
    assert "verdict=pass" in out


def test_verify_failure_exit(tmp_path, capsys):
    # a formula over 21 variables exceeds the enumeration cap: usage error
    f = tmp_path / "big.bool"
    f.write_text(" & ".join(f"x{i}" for i in range(1, 22)) + "\n")
    code, _, err = run(capsys, "verify", "sandwich", "--formula", str(f))
    assert code == 2 and "formlift:" in err


def test_byte_identical_reports(tmp_path, capsys):
    run(capsys, "gen", "bz", "--n", "4", "--out", str(tmp_path))
    bz = str(tmp_path / "bz4.bool")
    code1, out1, _ = run(capsys, "verify", "pitch", "--formula", bz, "--rounds", "2")
    code2, out2, _ = run(capsys, "verify", "pitch", "--formula", bz, "--rounds", "2")
    assert (code1, out1) == (code2, out2)


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "optimize", "--ef", str(tmp_path / "no.ef"),
                       "--min", "--obj", "1")
    assert code == 2
    bad = tmp_path / "bad.ef"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "optimize", "--ef", str(bad), "--min", "--obj", "1")
    assert code == 2 and "formlift:" in err
    f = tmp_path / "f.bool"
    f.write_text("x1 & x2\n")
    code, _, err = run(capsys, "lift", "--formula", str(f), "--rounds", "-1")
    assert code == 2


def test_optimize_unbounded_or_empty_file_exits_two(tmp_path, capsys):
    unb = tmp_path / "unb.ef"
    unb.write_text("ef\nxvars 1\nyvars 2\nineq 1 -1 >= 0\nproj 1 0 1 0\n")
    code, out, err = run(capsys, "optimize", "--ef", str(unb), "--max", "--obj=1")
    assert code == 2 and out == ""
    assert err.startswith("formlift: ") and "unbounded" in err
    assert len(err.splitlines()) == 1
    empty = tmp_path / "empty.ef"
    empty.write_text("ef\nxvars 1\nyvars 1\nineq 1 >= 1\nineq -1 >= 0\nproj 1 0 1\n")
    code, out, err = run(capsys, "optimize", "--ef", str(empty), "--min", "--obj=1")
    assert code == 2 and out == ""
    assert err.startswith("formlift: ") and "empty" in err
    assert len(err.splitlines()) == 1


# A lifted file over x1 = y1 with only y1 >= y2: unbounded until it meets the box.
UNBOUNDED_EF = ("ef\nxvars 2\nyvars 3\nineq 1 0 -1 >= 0\nineq 0 1 0 >= 0\n"
                "proj 1 0 1 0 0\nproj 2 0 0 1 0\n")
# The identity projection over y >= 0 alone: unbounded upward in both coordinates.
IDENTITY_EF = "ef\nxvars 2\nyvars 2\nineq 1 0 >= 0\nineq 0 1 >= 0\nproj 1 0 1 0\nproj 2 0 0 1\n"


# Files whose only fault is one `wit` line; without it, member finds (0, 0) inside.
BAD_WIT_EF = {
    "wit-bits": UNBOUNDED_EF + "wit 001 0\n",
    "wit-bit": UNBOUNDED_EF + "wit 02 1\n",
    "wit-index": UNBOUNDED_EF + "wit 00 3\n",
    "wit-token": UNBOUNDED_EF + "wit 00 1/2\n",
    "wit-xspace": "ef\nxvars 2\nyvars 0\nineq 1 1 >= 0\nwit 00\n",
}


@pytest.fixture
def lifted_inputs(tmp_path):
    (tmp_path / "nand.bool").write_text("!(x1 & x2)\n")
    (tmp_path / "unb.ef").write_text(UNBOUNDED_EF)
    (tmp_path / "id.ef").write_text(IDENTITY_EF)
    for name, text in BAD_WIT_EF.items():
        (tmp_path / f"{name}.ef").write_text(text)
    return tmp_path


@pytest.mark.parametrize("argv", [
    "lift --formula nand.bool --rounds -1",
    "closure --mode pitch --level 0 --formula nand.bool",
    "closure --mode pitch --level 1 --rounds -1 --formula nand.bool",
    "optimize --ef unb.ef --max --obj=1,0",
    "closure --mode notch --level 1 --formula nand.bool --ef unb.ef",
    *(f"member --ef {name}.ef --point 0,0" for name in BAD_WIT_EF),
    "measure --ineq 'x1 + >= 1' --n 2",
    "measure --ineq 'x1 ++ x2 >= 1' --n 2",
    "measure --ineq '1.2.3 x1 >= 1' --n 2",
    "measure --ineq '1e-1 x1 >= 1' --n 2",
    "measure --ineq 'x1 >= 1' --n 0",
    "measure --ineq 'x1 >= 1' --n -1",
], ids=["lift-rounds", "closure-level", "closure-rounds", "optimize-unbounded",
        "closure-ef-unbounded", *BAD_WIT_EF, "ineq-trailing-sign", "ineq-double-sign",
        "ineq-bad-coefficient", "ineq-signed-exponent",
        "measure-n-zero", "measure-n-negative"])
def test_bad_input_is_one_line_exit_two(lifted_inputs, capsys, monkeypatch, argv):
    monkeypatch.chdir(lifted_inputs)
    code, out, err = run(capsys, *shlex.split(argv))
    assert code == 2 and out == ""
    assert err.startswith("formlift: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    ("measure --ineq 'x1 + x2 >= 1e9999999' --n 2", "right-hand side: bad rational '1e9999999'"),
    ("measure --ineq '1e9999999 x1 >= 1' --n 2",
     "term '1e9999999 x1': bad rational '1e9999999'"),
    ("optimize --ef unb.ef --max --obj=1e9999999,0", "--obj: bad rational '1e9999999'"),
    ("member --ef unb.ef --point=1e-9999999,0", "--point: bad rational '1e-9999999'"),
], ids=["measure-rhs", "measure-term", "optimize-obj", "member-point"])
def test_huge_exponents_are_bad_rationals(lifted_inputs, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(lifted_inputs)
    assert run(capsys, *shlex.split(argv)) == (2, "", f"formlift: {message}\n")


def test_exponents_within_the_int_string_limit_read(lifted_inputs, capsys, monkeypatch):
    monkeypatch.chdir(lifted_inputs)
    code, out, _ = run(capsys, "optimize", "--ef", "id.ef", "--min", "--obj=1e4000,1")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "measure", "--ineq", "1e4000 x1 + x2 >= 1", "--n", "2")
    assert (code, out) == (0, "pitch=1 notch=1\n")


LONG_PROJECTION_EF = "ef\nxvars 1\nyvars 1\nrow 0:1 >= 0\nrow 0:-1 >= -1\nproj 1 0 1e4300\n"


def test_numbers_too_long_to_print_are_one_line(tmp_path, capsys):
    # input at the exponent cap reads, but a result one digit longer cannot
    # become text; the command says so in one line and prints nothing else
    too_long = f"has more than {sys.get_int_max_str_digits()} digits, too long to print"
    run(capsys, "gen", "bz", "--n", "3", "--out", str(tmp_path))
    ef = str(tmp_path / "bz3.ef")
    assert run(capsys, "lift", "--formula", str(tmp_path / "bz3.bool"), "--out", ef)[0] == 0
    assert run(capsys, "optimize", "--ef", ef, "--max", "--obj=1e4300,1,1") == (
        2, "", f"formlift: the optimal value {too_long}\n")
    code, out, _ = run(capsys, "optimize", "--ef", ef, "--max", "--obj=1e4299,1,1")
    assert code == 0 and out == "1" + "0" * 4298 + "2\n"
    (tmp_path / "long.ef").write_text(LONG_PROJECTION_EF)
    long_ef = str(tmp_path / "long.ef")
    assert run(capsys, "optimize", "--ef", long_ef, "--max", "--obj=1e-4300") == (0, "1\n", "")
    assert run(capsys, "-v", "optimize", "--ef", long_ef, "--max", "--obj=1e-4300") == (
        2, "", f"formlift: the optimal point {too_long}\n")
    (tmp_path / "big.ef").write_text("ef\nxvars 2\nyvars 0\nineq 1e4300 1 >= 0\n")
    (tmp_path / "or.bool").write_text("x1 | x2\n")
    assert run(capsys, "lift", "--formula", str(tmp_path / "or.bool"), "--polytope",
               str(tmp_path / "big.ef")) == (
        2, "", f"formlift: a number of the lifted formulation {too_long}\n")


def test_lift_writes_pair_rows_only_for_lifted_files(tmp_path, capsys):
    (tmp_path / "or.bool").write_text("x1 & x2 | x3 & x4\n")
    (tmp_path / "face.bool").write_text("x1 & !x2\n")
    for formula, rounds, yvars, kind in [("or", 1, "yvars 9", "row"),
                                         ("or", 0, "yvars 0", "ineq"),
                                         ("face", 1, "yvars 0", "ineq")]:
        code, out, _ = run(capsys, "lift", "--formula", str(tmp_path / f"{formula}.bool"),
                           "--rounds", str(rounds))
        lines = out.splitlines()
        assert code == 0 and lines[2] == yvars
        rows = [line for line in lines if line.startswith(("ineq ", "row "))]
        assert rows and all(line.startswith(kind + " ") for line in rows)


def _disjunction(k):
    return " | ".join(f"x{i % 5 + 1}" for i in range(k))


def _alternating(depth):
    text = "x1"
    for k in range(depth):
        text = f"(x2 {'&' if k % 2 else '|'} {text})"
    return text


@pytest.mark.parametrize("text, lifts", [
    (_disjunction(450), True),
    (_disjunction(1200), False),
    ("(" * 3000 + "x1" + ")" * 3000, False),
    ("!" * 3000 + "x1", False),
    (_alternating(900), False),
], ids=["flat-disjunction", "long-disjunction", "nested-parentheses", "stacked-negations",
        "alternating-and-or"])
def test_deep_formula_is_one_line_or_a_lift(tmp_path, capsys, text, lifts):
    # a chain is one node, so a long disjunction lifts until the nested
    # point and dual maps of its unions reach the recursion limit
    f = tmp_path / "deep.bool"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "lift", "--formula", str(f), "--rounds", "1",
                         "--out", str(tmp_path / "deep.ef"))
    assert out == ""
    if lifts:
        assert code == 0
        assert err == ("round 1: rows=5400 ydim=2699 base=10 size=450 and=0 or=449 "
                       "blocks=450 elided=0 checked=450 bound=5400 route=ef\n")
    else:
        assert code == 2
        assert err == "formlift: formula nests too deeply or has too long a chain\n"


@pytest.mark.parametrize("text, plain", [
    ("(" * 400 + "x1 | x2" + ")" * 400, "x1 | x2"),
    ("!(" * 200 + "x1 & !x2" + ")" * 200, "x1 & !x2"),
], ids=["parentheses", "negated-parentheses"])
def test_parentheses_cost_the_parser_no_recursion(tmp_path, capsys, text, plain):
    # the parser keeps open parentheses on a stack of its own, so text that
    # nests deeply around a shallow tree lifts to the same bytes as the tree's
    # own text
    (tmp_path / "deep.bool").write_text(text + "\n")
    (tmp_path / "plain.bool").write_text(plain + "\n")
    got = run(capsys, "lift", "--formula", str(tmp_path / "deep.bool"), "--rounds", "1",
              "--out", str(tmp_path / "deep.ef"))
    assert got[0] == 0
    assert got == run(capsys, "lift", "--formula", str(tmp_path / "plain.bool"),
                      "--rounds", "1", "--out", str(tmp_path / "plain.ef"))
    assert (tmp_path / "deep.ef").read_bytes() == (tmp_path / "plain.ef").read_bytes()


@pytest.mark.parametrize("argv", [
    "lift --formula nand.bool --polytope id.ef --rounds 2",
    "verify integral --formula nand.bool --polytope id.ef",
    "verify sandwich --formula nand.bool --polytope unb.ef",
], ids=["lift-identity", "integral-identity", "sandwich-unbounded"])
def test_lifted_polytope_files_are_clamped_to_the_box(lifted_inputs, capsys, monkeypatch,
                                                      argv):
    # each case needs the box rows: without them the union weight can leave
    # [0, 1], an arm on the hull route is unbounded, (1,1) enters the lift of
    # !(x1 & x2), and the sandwich LP is unbounded
    monkeypatch.chdir(lifted_inputs)
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    if argv.startswith("verify"):
        assert "verdict=pass" in out


def test_lifted_file_with_witnesses_is_clamped_once(tmp_path, capsys):
    # a lift written from the cube carries wit lines; read back as a base it
    # still gets the box rows through its projection, as before it had any.
    # The clamp keeps the witnesses, so every emptiness site of the next
    # lift is decided by one, and that lift writes wit lines of its own.
    run(capsys, "gen", "bz", "--n", "4", "--out", str(tmp_path))
    bz, l1, l2 = (str(tmp_path / name) for name in ("bz4.bool", "l1.ef", "l2.ef"))
    assert run(capsys, "lift", "--formula", bz, "--out", l1)[0] == 0
    assert "\nwit " in (tmp_path / "l1.ef").read_text()
    code, _, err = run(capsys, "lift", "--formula", bz, "--polytope", l1, "--out", l2)
    assert code == 0 and "rows=1872 " in err and " base=152 " in err
    assert "\nwit " in (tmp_path / "l2.ef").read_text()
    Q = cli._load_polytope(l1, 4)
    assert Q.witnesses and all(lp._holds(Q.rows, y) for _, y in Q.witnesses)
    _, rep = pt.lift(fm.reduce(fm.parse((tmp_path / "bz4.bool").read_text())), Q)
    assert rep.witnessed == len(rep.emptiness) == 15


# The closure-chain checks of `verify pitch|notch --rounds 2`, with their
# report lines as the Fraction-based double description printed them.
NOTCH_FORMULAS = {"n1": "x4 & x2 | !x4 | x3 & !x1",
                  "n2": "(x1 | !x2) & (x3 | x4) | !x1 & x2 & !x3"}
PINNED_LINES = {
    ("pitch", "bz4"): "check=pitch instance=bz4 verdict=pass n=4 levels=2 examined=30 priced=14\n",
    ("pitch", "bz5"): "check=pitch instance=bz5 verdict=pass n=5 levels=2 examined=62 priced=17\n",
    ("pitch", "covering"):
        "check=pitch instance=covering verdict=pass n=3 levels=2 examined=14 priced=11\n",
    ("notch", "n1"): "check=notch instance=n1 verdict=pass n=4 levels=2 examined=32 priced=7\n",
    ("notch", "n2"): "check=notch instance=n2 verdict=pass n=4 levels=2 examined=32 priced=11\n",
}


def _closure_inputs(tmp_path, capsys):
    tri = tmp_path / "tri.txt"
    tri.write_text("1 1 0\n0 1 1\n1 0 1\n")
    for gen in (["bz", "--n", "4"], ["bz", "--n", "5"], ["covering", "--matrix", str(tri)]):
        assert run(capsys, "gen", *gen, "--out", str(tmp_path))[0] == 0
    for name, text in NOTCH_FORMULAS.items():
        (tmp_path / f"{name}.bool").write_text(text + "\n")


def test_closure_chain_report_lines_are_pinned(tmp_path, capsys):
    _closure_inputs(tmp_path, capsys)
    for (mode, name), line in PINNED_LINES.items():
        got = run(capsys, "verify", mode, "--formula", str(tmp_path / f"{name}.bool"),
                  "--rounds", "2")
        assert got[:2] == (0, line)


def test_progression_lifts_each_round_once(tmp_path, capsys, monkeypatch):
    from formlift import hull
    _closure_inputs(tmp_path, capsys)
    calls = []
    real = hull.lift_hrep

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hull, "lift_hrep", counting)
    for mode, name in (("pitch", "bz4"), ("notch", "n1")):
        calls.clear()
        got = run(capsys, "verify", mode, "--formula", str(tmp_path / f"{name}.bool"),
                  "--rounds", "2")
        assert got[:2] == (0, PINNED_LINES[mode, name])
        assert len(calls) == 2


def test_progression_hulls_each_or_chain_once_per_round(tmp_path, capsys, monkeypatch):
    # bz4 is an AND of four OR chains: each round hulls every chain once and
    # then its own rows once, and closure pricing takes the round's certified
    # vertex list, so `measures` hulls nothing
    from formlift import hull
    _closure_inputs(tmp_path, capsys)
    callers = []
    real = hull._hull

    def counting(points, n):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_globals.get("__name__"))
            frame = frame.f_back
        callers.append(names)
        return real(points, n)

    monkeypatch.setattr(hull, "_hull", counting)
    got = run(capsys, "verify", "pitch", "--formula", str(tmp_path / "bz4.bool"), "--rounds", "2")
    assert got[:2] == (0, PINNED_LINES["pitch", "bz4"])
    assert len(callers) == 2 * (4 + 1)
    assert not any("formlift.measures" in names for names in callers)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_transcripts():
    """(argv, shown lines) of every `$ formlift` line in README's console blocks."""
    steps, inside = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside = line == "```console"
        elif inside and line.startswith("$ "):
            assert line.startswith("$ formlift "), line
            steps.append((shlex.split(line)[2:], []))
        elif inside:
            steps[-1][1].append(line)
    return steps


def test_readme_transcripts_reproduce(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.bool").write_text("(x1 | x2) & (x2 | x3) & (x1 | x3)\n")
    steps = _readme_transcripts()
    shown = [line for _, lines in steps for line in lines]
    assert any("route=hull" in line for line in shown)
    assert any(argv[:2] == ["verify", "complete"] for argv, _ in steps)
    for argv, lines in steps:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), argv
        assert err.splitlines() + out.splitlines() == lines, argv


# ---------------------------------------------------------------------------
# fuzzing: mutated formula files, formulation files and vectors


FUZZ_BOOLS = ("(x1 | x2) & (x2 | x3) & (x1 | x3)\n", "x1 & !x2 | x3\n",
              "!(x1 & (x2 | !x3)) | x4 & 1\n")
FUZZ_XSPACE_EF = "ef\nxvars 3\nyvars 0\nineq 1 1 0 >= 1\nineq 0 1/2 1 >= 1/2\n"
FUZZ_VECTORS = ("1/2,1/3,0", "0,1,-2")
# what a corrupted token becomes, or what is inserted
FUZZ_TOKENS = ("", " ", "\n", "x0", "x5", "x9", "(", ")", "!", "&", "|", "0", "1", "-", "/",
               "1/0", "-1", "2/3", "1.5", "1e3", "1e9999999", "nan", "inf", ":", "0:1", "9:9",
               ">=", "#", "é", "ef", "xvars", "yvars", "ineq", "row", "proj", "wit")
# variable counts that a header may state; they are refused before they cost.
# A formula that names such a variable asks for an answer that large, so
# they go into formulation files and vectors only.
FUZZ_COUNTS = ("200000", "123456789")


def _lifted_text():
    phi = fm.reduce(fm.parse(FUZZ_BOOLS[1]))
    return pt.to_text(pt.lift(phi, pt.cube(phi.n))[0])


@st.composite
def _mutated(draw, text, nest):
    """`text` with one to three tokens dropped, duplicated, corrupted or inserted,
    a character replaced, or, when `nest`, the whole wrapped in up to 1100
    parentheses or negations.  A corrupted or inserted token comes from
    FUZZ_TOKENS, and from FUZZ_COUNTS too when not `nest`."""
    tokens = re.findall(r"\s+|[A-Za-z]+\d*|\d+|.", text, re.S)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "dup", "corrupt", "insert", "char", "nest")))
        i = draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if op == "char" and tokens and tokens[i]:
            j = draw(st.integers(0, len(tokens[i]) - 1))
            c = draw(st.sampled_from("x:/-.e!|&()# "))
            tokens[i] = tokens[i][:j] + c + tokens[i][j + 1:]
        elif op == "nest" and nest:
            k = draw(st.sampled_from((3, 400, 1100)))
            tokens = (["("] * k + tokens + [")"] * k if draw(st.booleans())
                      else ["!"] * k + ["("] + tokens + [")"])
        elif op == "drop" and tokens:
            del tokens[i]
        elif op == "dup" and tokens:
            tokens.insert(i, tokens[i] + " ")
        elif op in ("corrupt", "insert"):
            pool = FUZZ_TOKENS if nest else FUZZ_TOKENS + FUZZ_COUNTS
            tokens[i:i + (op == "corrupt")] = [draw(st.sampled_from(pool))]
    return "".join(tokens)


def _fuzz_cases():
    ef_texts = (FUZZ_XSPACE_EF, _lifted_text())
    bool_runs = st.sampled_from((
        ("parse",), ("reduce",), ("lift",), ("lift", "--rounds", "2"), ("notchset",),
        ("verify", "complete", "--rounds", "1"),
        ("closure", "--mode", "notch", "--level", "1"),
    )).map(lambda cmd: (*cmd, "--formula", "{bool}"))
    ef_runs = st.sampled_from((
        ("optimize", "--ef", "{ef}", "--min", "--obj={vec}"),
        ("member", "--ef", "{ef}", "--point={vec}"),
        ("closure", "--mode", "pitch", "--level", "1", "--formula", "{good}", "--ef", "{ef}"),
        ("lift", "--formula", "{good}", "--polytope", "{ef}"),
    ))
    return st.one_of(
        st.tuples(bool_runs, st.sampled_from(FUZZ_BOOLS).flatmap(lambda t: _mutated(t, True)),
                  st.just(FUZZ_XSPACE_EF), st.just(FUZZ_VECTORS[0])),
        st.tuples(ef_runs, st.just(FUZZ_BOOLS[0]),
                  st.sampled_from(ef_texts).flatmap(lambda t: _mutated(t, False)),
                  st.just(FUZZ_VECTORS[1])),
        st.tuples(ef_runs, st.just(FUZZ_BOOLS[0]), st.sampled_from(ef_texts),
                  st.sampled_from(FUZZ_VECTORS).flatmap(lambda t: _mutated(t, False))),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_cases())
def test_mutated_inputs_exit_cleanly(tmp_path_factory, case):
    # every run ends in 0, 1 or 2, and 2 comes with one `formlift:` line
    template, bool_text, ef_text, vec = case
    where = tmp_path_factory.mktemp("fuzz")
    (where / "f.bool").write_text(bool_text)
    (where / "good.bool").write_text(FUZZ_BOOLS[0])
    (where / "f.ef").write_text(ef_text)
    fields = {"bool": str(where / "f.bool"), "good": str(where / "good.bool"),
              "ef": str(where / "f.ef"), "vec": vec}
    argv = [arg.format(**fields) for arg in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("formlift: "), (argv, lines)


def test_a_stated_size_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # a three-line file that states 200000 variables: every command that
    # knows its dimension refuses it with its one line before any box row
    big, f = tmp_path / "big.ef", tmp_path / "f.bool"
    big.write_text("ef\nxvars 200000\nyvars 0\n")
    f.write_text("x1 | x2\n")

    def refuse(n, rows):
        raise AssertionError("the box rows of a refused file were built")

    monkeypatch.setattr(pt, "_boxed", refuse)
    over = f"formlift: {big} is over 200000 variables, the formula over 2\n"
    for argv, err in [
        (("optimize", "--ef", big, "--min", "--obj", "1,1"),
         "formlift: objective has 2 entries, the formulation 200000\n"),
        (("member", "--ef", big, "--point", "0,1"),
         "formlift: point has 2 entries, the formulation 200000\n"),
        (("closure", "--mode", "pitch", "--level", "1", "--formula", f, "--ef", big), over),
        (("lift", "--formula", f, "--polytope", big), over),
    ]:
        assert run(capsys, *map(str, argv)) == (2, "", err)
