import ast
import contextlib
import hashlib
import io
import pathlib
import re
import shlex
import sys
import time
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


# The benchmark's ten bz5 objectives with the value and the point each
# optimum was printed at on the bz5 round-1 file, and the pivots the ten
# solves took together.  Bland's rule picks one optimal vertex among ties,
# so a change of pivot path shows here first.
BZ5_OPTIMA = (
    ("min", "-2,-3,3,-3,2", "-8", "1 1 0 1 0"), ("max", "3,1,2,0,3", "9", "1 1 1 0 1"),
    ("min", "0,-3,-1,1,-1", "-5", "0 1 1 0 1"), ("max", "-3,2,-2,-1,3", "5", "0 1 0 0 1"),
    ("min", "3,-1,0,-1,1", "-2", "0 1 0 1 0"), ("max", "0,-3,-3,-1,1", "1", "1 0 0 0 1"),
    ("min", "-1,-3,2,-3,3", "-7", "1 1 0 1 0"), ("max", "-3,3,-2,3,2", "8", "0 1 0 1 1"),
    ("min", "-1,-3,-1,1,-3", "-8", "1 1 1 0 1"), ("min", "-2,-2,-3,2,-1", "-8", "1 1 1 0 1"),
)
BZ5_PIVOTS = 116


def test_bz5_optima_keep_their_points_and_pivots(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "bz", "--n", "5")
    assert run(capsys, "lift", "--formula", "bz5.bool", "--out", "l1.ef")[0] == 0
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
    for sense, obj, value, at in BZ5_OPTIMA:
        assert run(capsys, "-v", "optimize", "--ef", "l1.ef", f"--{sense}", f"--obj={obj}") == (
            0, f"{value}\n", f"at {at}\n")
    assert len(pivots) == BZ5_PIVOTS


def test_member_exit_codes(tmp_path, capsys):
    f = tmp_path / "phi.bool"
    f.write_text("x1 & x2\n")
    ef = tmp_path / "l.ef"
    run(capsys, "lift", "--formula", str(f), "--out", str(ef))
    code, out, _ = run(capsys, "member", "--ef", str(ef), "--point", "1,1")
    assert code == 0 and out.strip() == "inside"
    code, out, _ = run(capsys, "member", "--ef", str(ef), "--point", "1/2,1")
    assert code == 1 and out.strip() == "outside"


@pytest.mark.parametrize("argv", [("optimize", "--min", "--obj", "-1,1"),
                                  ("optimize", "--max", "--obj", "-1/2,-3"),
                                  ("member", "--point", "-1/2,0"),
                                  ("member", "--point", "1/2,1")])
def test_a_vector_after_a_space_reads_as_with_equals(tmp_path, capsys, argv):
    # a vector that starts with `-` is the option's value, not an option
    ef = tmp_path / "c2.ef"
    ef.write_text("ef\nxvars 2\nyvars 0\n")
    *head, opt, vec = argv
    spaced = run(capsys, *head, "--ef", str(ef), opt, vec)
    assert spaced == run(capsys, *head, "--ef", str(ef), f"{opt}={vec}")
    assert spaced[0] in (0, 1) and spaced[1]


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


def test_closure_refuses_an_empty_relaxation_above_the_search_limit(tmp_path, capsys):
    f = tmp_path / "f7.bool"
    f.write_text("x1 & !x1 & (x2 | x3 | x4 | x5 | x6 | x7)\n")
    code, out, err = run(capsys, "closure", "--mode", "notch", "--level", "1",
                         "--formula", str(f))
    assert (code, out, err) == (2, "", "formlift: dimension 7 exceeds notch search limit 6\n")


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


@pytest.mark.parametrize("family, text, message", [
    ("covering", "1 1\n1 1 0\n", "row 2 has length 3, expected 2"),
    ("covering", "1 1\n1 2\n", "row 2 is not 0/1"),
    ("bounded", "1 1\n1 4\n", "row 2 has an entry outside 0..3"),
    ("bounded", "1 1\n", "1 rows but 2 thresholds"),
], ids=["ragged", "not-0-1", "entry-above-limit", "thresholds"])
def test_a_bad_matrix_is_named_in_its_diagnostic(tmp_path, capsys, monkeypatch,
                                                 family, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text(text)
    b = ["--b", "1,1"] if family == "bounded" else []
    assert run(capsys, "gen", family, "--matrix", "m.txt", *b) == (
        2, "", f"formlift: m.txt: {message}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "m.txt"]


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
    # a lifted file the LP finds infeasible, and the empty marker, in one wording
    lifted = tmp_path / "empty.ef"
    lifted.write_text("ef\nxvars 1\nyvars 1\nineq 1 >= 1\nineq -1 >= 0\nproj 1 0 1\n")
    marker = tmp_path / "marker.ef"
    marker.write_text("ef\nxvars 2\nyvars 0\nineq 0 0 >= 1\n")
    for empty, obj in ((lifted, "--obj=1"), (marker, "--obj=1,1")):
        code, out, err = run(capsys, "optimize", "--ef", str(empty), "--min", obj)
        assert code == 2 and out == ""
        assert err == f"formlift: {empty}: the formulation is empty; nothing to optimize\n"


# A lifted file over x1 = y1 with only y1 >= y2: unbounded until it meets the box.
UNBOUNDED_EF = ("ef\nxvars 2\nyvars 3\nineq 1 0 -1 >= 0\nineq 0 1 0 >= 0\n"
                "proj 1 0 1 0 0\nproj 2 0 0 1 0\n")
# The identity projection over y >= 0 alone: unbounded upward in both coordinates.
IDENTITY_EF = "ef\nxvars 2\nyvars 2\nineq 1 0 >= 0\nineq 0 1 >= 0\nproj 1 0 1 0\nproj 2 0 0 1\n"


# Files whose only fault is one `wit` or `proj` line, a missing `proj` line or
# the header; without it, member finds (0, 0) inside.
BAD_EF = {
    "wit-bits": UNBOUNDED_EF + "wit 001 0\n",
    "wit-bit": UNBOUNDED_EF + "wit 02 1\n",
    "wit-index": UNBOUNDED_EF + "wit 00 3\n",
    "wit-token": UNBOUNDED_EF + "wit 00 1/2\n",
    "wit-xspace": "ef\nxvars 2\nyvars 0\nineq 1 1 >= 0\nwit 00\n",
    "wit-repeated": UNBOUNDED_EF + "wit 00\nwit 00\n",
    "proj-xspace": "ef\nxvars 2\nyvars 0\nineq 1 1 >= 0\nproj 1 0 1 0\n",
    "proj-repeated": UNBOUNDED_EF + "proj 1 0 1 0 0\n",
    "proj-missing": UNBOUNDED_EF.replace("proj 2 0 0 1 0\n", ""),
    "xvars-zero": "ef\nxvars 0\nyvars 0\n",
}


@pytest.fixture
def lifted_inputs(tmp_path):
    (tmp_path / "nand.bool").write_text("!(x1 & x2)\n")
    (tmp_path / "unb.ef").write_text(UNBOUNDED_EF)
    (tmp_path / "id.ef").write_text(IDENTITY_EF)
    for name, text in BAD_EF.items():
        (tmp_path / f"{name}.ef").write_text(text)
    return tmp_path


@pytest.mark.parametrize("argv", [
    "lift --formula nand.bool --rounds -1",
    "closure --mode pitch --level 0 --formula nand.bool",
    "closure --mode pitch --level 1 --rounds -1 --formula nand.bool",
    "optimize --ef unb.ef --max --obj=1,0",
    "closure --mode notch --level 1 --formula nand.bool --ef unb.ef",
    *(f"member --ef {name}.ef --point 0,0" for name in BAD_EF),
    "measure --ineq 'x1 + >= 1' --n 2",
    "measure --ineq 'x1 ++ x2 >= 1' --n 2",
    "measure --ineq '1.2.3 x1 >= 1' --n 2",
    "measure --ineq '1e-1 x1 >= 1' --n 2",
    "measure --ineq 'x1 >= 1' --n 0",
    "measure --ineq 'x1 >= 1' --n -1",
], ids=["lift-rounds", "closure-level", "closure-rounds", "optimize-unbounded",
        "closure-ef-unbounded", *BAD_EF, "ineq-trailing-sign", "ineq-double-sign",
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


def _conjunction(k):
    """A CNF of k three-literal clauses over x1..x5."""
    return " & ".join(f"(x{i % 5 + 1} | x{(i + 1) % 5 + 1} | x{(i + 2) % 5 + 1})"
                      for i in range(k))


def _alternating(depth):
    text = "x1"
    for k in range(depth):
        text = f"(x2 {'&' if k % 2 else '|'} {text})"
    return text


@pytest.mark.parametrize("text, lifts", [
    (_disjunction(450), "rows=5400 ydim=2699 base=10 size=450 and=0 or=449 "
                        "blocks=450 elided=0 checked=450 bound=5400"),
    (_disjunction(1200), "rows=14400 ydim=7199 base=10 size=1200 and=0 or=1199 "
                         "blocks=1200 elided=0 checked=1200 bound=14400"),
    (_conjunction(1000), "rows=45990 ydim=17000 base=10 size=3000 and=999 or=2000 "
                         "blocks=3000 elided=0 checked=3999 bound=45990"),
    ("(" * 3000 + "x1" + ")" * 3000, None),
    ("!" * 3000 + "x1", None),
    (_alternating(900), None),
], ids=["flat-disjunction", "long-disjunction", "long-conjunction", "nested-parentheses",
        "stacked-negations", "alternating-and-or"])
def test_deep_formula_is_one_line_or_a_lift(tmp_path, capsys, text, lifts):
    # a chain is one node and its union or intersection one system, so a
    # long disjunction or conjunction lifts; a formula nested deeper than the
    # recursion limit is one line
    f = tmp_path / "deep.bool"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "lift", "--formula", str(f), "--rounds", "1",
                         "--out", str(tmp_path / "deep.ef"))
    assert out == ""
    if lifts:
        assert code == 0
        assert err == f"round 1: {lifts} route=ef\n"
    else:
        assert code == 2
        assert err == "formlift: formula nests too deeply or has too long a chain\n"


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_disjunction_costs_no_frame_per_arm(tmp_path, capsys):
    # the union's point and dual maps are one closure each over the list of
    # arms, so 600 arms lift with little more stack than one arm needs
    f = tmp_path / "long.bool"
    f.write_text(_disjunction(600) + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        got = run(capsys, "lift", "--formula", str(f), "--rounds", "1",
                  "--out", str(tmp_path / "long.ef"))
    finally:
        sys.setrecursionlimit(limit)
    assert got == (0, "", "round 1: rows=7200 ydim=3599 base=10 size=600 and=0 or=599 "
                          "blocks=600 elided=0 checked=600 bound=7200 route=ef\n")


def test_a_long_conjunction_costs_no_frame_per_conjunct(tmp_path, capsys):
    # the intersection's point and dual maps are one closure each over the
    # list of arms, and its prefixes are decided without nesting, so 600
    # clauses lift with little more stack than one clause needs
    f = tmp_path / "long.bool"
    f.write_text(_conjunction(600) + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        got = run(capsys, "lift", "--formula", str(f), "--rounds", "1",
                  "--out", str(tmp_path / "long.ef"))
    finally:
        sys.setrecursionlimit(limit)
    assert got == (0, "", "round 1: rows=27590 ydim=10200 base=10 size=1800 and=599 or=1200 "
                          "blocks=1800 elided=0 checked=2399 bound=27590 route=ef\n")


def test_a_long_literal_block_costs_no_frame_per_fixing():
    # a block of literals is one face with one point map and one dual map,
    # so 300 literals are lifted and queried with little more stack than one
    n = 300
    phi = fm.reduce(fm.parse(" & ".join(f"x{i}" for i in range(1, n + 1)), n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        ef, _ = pt.lift(phi, pt.cube(n))
        got = (lp.proves_valid(ef, (1,) * n, n), lp.contains_point(ef, (1,) * n),
               lp.contains_point(ef, (0,) + (1,) * (n - 1)))
    finally:
        sys.setrecursionlimit(limit)
    assert got == (True, True, False)


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
    base = pt.from_text((tmp_path / "l1.ef").read_text())
    Q = pt._clamped(base)
    assert len(Q.rows) == len(base.rows) + 8 == 152
    assert Q.witnesses and all(lp._holds(Q.rows, y) for _, y in Q.witnesses)
    phi = fm.reduce(fm.parse((tmp_path / "bz4.bool").read_text()))
    _, rep = pt.lift(phi, base)
    assert rep.base_rows == 152
    assert rep.witnessed == len(rep.emptiness) == 15
    # the clamped file's box rows prove themselves, so clamping it again adds no row
    assert pt._clamped(Q) is Q
    assert pt.lift(phi, pt.iterate_lift(phi, base, 0)[0])[1].base_rows == 152


def test_every_path_over_a_lifted_polytope_file_clamps_it_once(tmp_path, capsys, monkeypatch):
    # the bytes each command printed and wrote when the CLI appended the box
    # rows itself; a lift over a file proves the box only through the rows
    # its clamp stated, and without that round 2's clamp would read base=1880
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "bz", "--n", "4")
    assert run(capsys, "lift", "--formula", "bz4.bool", "--out", "l1.ef")[0] == 0
    code, _, err = run(capsys, "lift", "--formula", "bz4.bool", "--polytope", "l1.ef",
                       "--rounds", "2", "--out", "l2.ef")
    assert code == 0
    assert [line.split(" size=")[0] for line in err.splitlines()] == [
        "round 1: rows=1872 ydim=680 base=152", "round 2: rows=22512 ydim=8168 base=1872"]
    assert hashlib.sha256((tmp_path / "l2.ef").read_bytes()).hexdigest()[:16] == "553738f28cb2ba97"
    assert run(capsys, "lift", "--formula", "bz4.bool", "--polytope", "l1.ef",
               "--rounds", "0", "--out", "l0.ef")[0] == 0
    written = (tmp_path / "l0.ef").read_bytes()
    assert written.count(b"\n") == 170
    assert hashlib.sha256(written).hexdigest()[:16] == "e7669bb9e92f35fb"
    for kind, shown in (("sandwich", " points=11 rows=12 ef_rows=1872 "),
                        ("integral", " points=16 ef_rows=1872\n"),
                        ("size", " ef_rows=1872 bound=1872 plain_product=1824 ")):
        code, out, _ = run(capsys, "verify", kind, "--formula", "bz4.bool", "--polytope", "l1.ef")
        assert code == 0 and shown in out
    code, out, _ = run(capsys, "closure", "--mode", "pitch", "--level", "1", "--formula",
                       "bz4.bool", "--polytope", "l1.ef", "--rounds", "0")
    assert (code, out) == (0, "closure mode=pitch level=1 examined=15 skipped=10 priced=5 "
                              "violation=none\n")


@pytest.mark.parametrize("argv, message", [
    ("verify complete --formula bz4.bool --polytope nonexistent.ef",
     "verify complete takes no --polytope"),
    ("verify pitch --formula bz4.bool --polytope nonexistent.ef", "verify pitch takes no --polytope"),
    ("verify notch --formula bz4.bool --polytope nonexistent.ef", "verify notch takes no --polytope"),
    ("verify sandwich --formula bz4.bool --covering-m 3", "verify sandwich takes no --covering-m"),
    ("verify integral --formula bz4.bool --rounds 2", "verify integral takes no --rounds"),
    ("closure --mode pitch --level 1 --formula bz4.bool --ef bz4.ef --rounds 3 "
     "--polytope nonexistent.ef", "closure --ef takes no --polytope"),
    ("closure --mode pitch --level 1 --formula bz4.bool --ef bz4.ef --rounds 3",
     "closure --ef takes no --rounds"),
    ("gen matching-k4 --n 5 --b 1,2", "gen matching-k4 takes no --n"),
    ("gen bz --n 4 --matrix nonexistent.txt", "gen bz takes no --matrix"),
    ("gen covering --matrix m.txt --b 1,2", "gen covering takes no --b"),
], ids=["complete-polytope", "pitch-polytope", "notch-polytope", "sandwich-covering-m",
        "integral-rounds", "closure-ef-polytope", "closure-ef-rounds", "gen-matching-n",
        "gen-bz-matrix", "gen-covering-b"])
def test_a_flag_the_command_would_ignore_is_refused(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "bz", "--n", "4")
    assert run(capsys, *argv.split()) == (2, "", f"formlift: {message}\n")


def test_the_flags_each_command_uses_are_still_taken(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text("1 1 0\n0 1 1\n")
    for argv in ("gen bz --n 4",
                 "gen covering --matrix m.txt",
                 "gen bounded --matrix m.txt --b 2,1",
                 "gen matching-k4",
                 "verify size --formula bz4.bool --covering-m 3 --polytope cube",
                 "verify complete --formula bz4.bool --rounds 2",
                 "verify sandwich --formula bz4.bool --polytope bz4.ef",
                 "closure --mode pitch --level 1 --formula bz4.bool --ef bz4.ef",
                 "closure --mode pitch --level 1 --formula bz4.bool --polytope cube --rounds 1"):
        assert run(capsys, *argv.split())[0] == 0, argv


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
    # bz4 is an AND of four OR chains, and its rounds hull each distinct
    # point set once per chain: round 1 hulls the four chains and then its
    # own points; in round 2 all four chains and the round take the same
    # points, the 0/1 vertices of round 1, hulled once.  Closure pricing
    # takes the round's certified vertex list, so `measures` hulls nothing
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
    assert len(callers) == (4 + 1) + 1
    assert not any("formlift.measures" in names for names in callers)


def test_successive_commands_share_no_hulls(tmp_path, capsys, monkeypatch):
    # the rounds' hulls live as long as one command's chain, so the same
    # command run twice in one process hulls the same number of times
    from formlift import hull
    _closure_inputs(tmp_path, capsys)
    calls = []
    real = hull._hull
    monkeypatch.setattr(hull, "_hull", lambda points, n: calls.append(n) or real(points, n))
    counts = []
    for _ in range(2):
        calls.clear()
        got = run(capsys, "verify", "pitch", "--formula", str(tmp_path / "bz5.bool"),
                  "--rounds", "2")
        assert got[:2] == (0, PINNED_LINES["pitch", "bz5"])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_progression_stops_at_the_first_empty_round(tmp_path, capsys, monkeypatch):
    # the set is empty, so is every round: no level prices a relaxation
    from formlift import hull
    f = tmp_path / "contra.bool"
    f.write_text("x1 & !x1 & x2\n")
    calls = []
    for mod, name in ((hull, "vertices_of_rows"), (lp, "optimize_rows")):
        def counting(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counting)
    got = run(capsys, "verify", "notch", "--formula", str(f), "--rounds", "3")
    line = "check=notch instance=contra verdict=pass n=2 levels=3 examined=0 priced=0\n"
    assert got == (0, line, "")
    assert calls == []


# ---------------------------------------------------------------------------
# size caps: each refused by its owner, before any work


def _disjunction_file(tmp_path, n):
    f = tmp_path / f"or{n}.bool"
    f.write_text(" | ".join(f"x{i}" for i in range(1, n + 1)) + "\n")
    return str(f)


CLOSURE_PITCH = ["closure", "--mode", "pitch", "--level", "1"]
# verify notch and closure --mode notch refuse one 7-variable file with one line
REFUSALS = [
    (["verify", "sandwich"], 21, "dimension 21 exceeds enumeration limit 20"),
    (["verify", "integral"], 21, "dimension 21 exceeds enumeration limit 20"),
    (["verify", "complete"], 9, "dimension 9 exceeds hull limit 8"),
    (["verify", "pitch"], 9, "dimension 9 exceeds pitch search limit 8"),
    (["verify", "notch"], 7, "dimension 7 exceeds notch search limit 6"),
    (CLOSURE_PITCH, 9, "dimension 9 exceeds pitch search limit 8"),
    (CLOSURE_PITCH, 20, "dimension 20 exceeds pitch search limit 8"),
    (CLOSURE_PITCH, 21, "dimension 21 exceeds pitch search limit 8"),
    (["closure", "--mode", "notch", "--level", "1"], 7,
     "dimension 7 exceeds notch search limit 6"),
    (["notchset"], 9, "dimension 9 exceeds face enumeration limit 8"),
    (["notchset"], 20, "dimension 20 exceeds face enumeration limit 8"),
    (["notchset"], 21, "dimension 21 exceeds face enumeration limit 8"),
    # no bundle over more than the box limit can be lifted; gen bz refuses one
    # before its n x n clause matrix
    (["gen", "bz", "--n"], 2001, "dimension 2001 exceeds box limit 2000"),
]


@pytest.mark.parametrize("argv, n, message", REFUSALS, ids=[
    "-".join([w for w in argv if w.isalpha()] + [str(n)]) for argv, n, _ in REFUSALS])
def test_a_cap_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, n, message):
    from formlift import hull

    def work(*args, **kwargs):
        raise AssertionError("work done before the cap was checked")

    monkeypatch.setattr(fm.Formula, "_eval", work)
    monkeypatch.setattr(hull, "vertices_of_rows", work)
    monkeypatch.setattr(lp, "_solve", work)
    monkeypatch.setattr(fm, "covering_cnf", work)
    tail = ([str(n), "--out", str(tmp_path)] if argv[-1] == "--n"
            else ["--formula", _disjunction_file(tmp_path, n)])
    got = run(capsys, *argv, *tail)
    assert got == (2, "", f"formlift: {message}\n")


def test_verify_size_has_no_cap(tmp_path, capsys):
    got = run(capsys, "verify", "size", "--formula", _disjunction_file(tmp_path, 21))
    line = ("check=size instance=or21 verdict=pass n=21 size=21 ef_rows=924 bound=924 "
            "plain_product=882 naive_rows=924 saved=0 blocks=21\n")
    assert got == (0, line, "")


@pytest.mark.parametrize("argv", [["lift"], ["verify", "size"]], ids=["lift", "verify-size"])
def test_a_named_dimension_over_the_box_limit_is_refused(tmp_path, capsys, argv):
    # a typo such as x9200000 names a dimension whose unit box alone would
    # take minutes to build; it is refused before any box row
    f = tmp_path / "typo.bool"
    f.write_text("x9200000 | x1\n")
    t0 = time.perf_counter()
    got = run(capsys, *argv, "--formula", str(f))
    assert time.perf_counter() - t0 < 1
    assert got == (2, "", "formlift: dimension 9200000 exceeds box limit 2000\n")


@pytest.mark.parametrize("argv", [["lift"], ["verify", "size"]], ids=["lift", "verify-size"])
def test_a_lifted_base_over_the_box_limit_is_refused(tmp_path, capsys, argv):
    # the lift clamps the file, and asks the box cap before any box row
    n = pt.BOX_LIMIT + 1
    (tmp_path / "wide.bool").write_text(f"x{n} | x1\n")
    (tmp_path / "wide.ef").write_text(f"ef\nxvars {n}\nyvars 1\nrow 0:1 >= 0\n"
                                      + "".join(f"proj {i} 0 1\n" for i in range(1, n + 1)))
    got = run(capsys, *argv, "--formula", str(tmp_path / "wide.bool"),
              "--polytope", str(tmp_path / "wide.ef"))
    assert got == (2, "", f"formlift: dimension {n} exceeds box limit {pt.BOX_LIMIT}\n")


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


def _limit_constants():
    """(`module.NAME`, value) of every module-level `*_LIMIT` under src/formlift."""
    for path in sorted(pathlib.Path(fm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", ()):
                if isinstance(target, ast.Name) and target.id.endswith("_LIMIT"):
                    yield f"{path.stem}.{target.id}", ast.literal_eval(node.value)


def test_readme_caps_table_names_every_limit():
    caps = README.read_text().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    limits = list(_limit_constants())
    assert "measures.FACE_LIMIT" in dict(limits)
    for name, value in limits:
        assert f"| `{name}` | {value} |" in caps, name


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
