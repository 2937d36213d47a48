import itertools
from fractions import Fraction

import pytest

from formlift import formula as fm
from formlift import instances as inst


def test_gen_bz_shape_and_set():
    b = inst.gen_bz(3)
    assert b.n == 3
    assert b.formula.is_monotone()
    assert len(b.points.points) == 4
    assert b.reference.facets[0][1] == 2
    b5 = inst.gen_bz(5)
    assert b5.formula.size == 20  # n clauses of n-1 literals
    assert all(sum(p) >= 2 for p in b5.points.points)
    assert len(b5.points.points) == 2 ** 5 - 1 - 5


def test_gen_bz_rejects_small_n():
    with pytest.raises(ValueError):
        inst.gen_bz(2)


def test_gen_covering_triangle():
    tri = inst.gen_covering([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert tri.points.points == ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def test_gen_covering_identity_is_single_corner():
    one = inst.gen_covering([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert one.points.points == ((1, 1, 1),)


def test_gen_covering_matches_arithmetic_random():
    import random
    rng = random.Random(19)
    for _ in range(20):
        n = 4
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [rng.randint(0, 1) for _ in range(n)]
            if not any(row):
                row[rng.randrange(n)] = 1
            rows.append(row)
        g = inst.gen_covering(rows)
        want = [p for p in itertools.product((0, 1), repeat=n)
                if all(sum(a * b for a, b in zip(r, p)) >= 1 for r in rows)]
        assert list(g.points.points) == want


def test_gen_covering_rejects_zero_row():
    with pytest.raises(ValueError):
        inst.gen_covering([[0, 0]])


def test_gen_bounded_covering_examples():
    g = inst.gen_bounded_covering([[2, 1]], [2])
    assert g.points.points == ((1, 0), (1, 1))
    g2 = inst.gen_bounded_covering([[1, 1, 1]], [2])
    assert g2.points.points == tuple(
        p for p in itertools.product((0, 1), repeat=3) if sum(p) >= 2)
    # unit entries collapse to plain covering clauses semantically
    g3 = inst.gen_bounded_covering([[1, 1], [1, 0]], [1, 1])
    cov = inst.gen_covering([[1, 1], [1, 0]])
    assert g3.points == cov.points


def test_gen_bounded_covering_validation():
    with pytest.raises(ValueError):
        inst.gen_bounded_covering([[4, 0]], [1])  # entry above the cap
    with pytest.raises(ValueError):
        inst.gen_bounded_covering([[1, 1]], [3])  # unreachable threshold
    with pytest.raises(ValueError):
        inst.gen_bounded_covering([[1, 1]], [0])  # threshold must be positive
    with pytest.raises(ValueError):
        inst.gen_bounded_covering([[1, 1]], [1, 1])


def test_gen_matching_k4():
    k4 = inst.gen_matching_k4()
    assert k4.n == 6
    assert k4.formula.size == 6
    assert k4.formula.is_monotone()
    # supports containing a perfect matching, counted exhaustively
    pms = [(0, 5), (1, 4), (2, 3)]
    want = [p for p in itertools.product((0, 1), repeat=6)
            if any(p[i] and p[j] for i, j in pms)]
    assert list(k4.points.points) == want
    assert len(want) == 37
    assert (1, 1, 1, 1, 1, 1) in k4.points.points
    for i, j in pms:
        p = tuple(1 if k in (i, j) else 0 for k in range(6))
        assert p in k4.points.points
    assert len(k4.reference.facets) == 4
    assert len(k4.reference.equations) == 4
    # every odd cut hits every perfect matching exactly once
    for a, rhs in k4.reference.facets:
        for i, j in pms:
            assert a[i] + a[j] == 1


def test_instance_invariant_enforced():
    with pytest.raises(ValueError):
        inst.Instance("bad", fm.parse("x1 | x2", 2), 2,
                      fm.point_set(2, [(0, 0)]))
    with pytest.raises(ValueError):
        inst.Instance("bad", fm.parse("x1", 1), 2)


def test_bundle_round_trip(tmp_path):
    k4 = inst.gen_matching_k4()
    bz = inst.gen_bz(3)
    inst.save_bundle(k4, tmp_path)
    inst.save_bundle(bz, tmp_path)
    man = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "instance matching-k4 n=6" in man
    assert "instance bz3 n=3" in man
    back = inst.load_bundle(tmp_path, "matching-k4")
    assert back.formula == k4.formula
    assert back.points == k4.points
    assert sorted(back.reference.rows()) == sorted(k4.reference.rows())
    assert len(back.reference.equations) == 4
    b2 = inst.load_bundle(tmp_path, "bz3")
    assert b2.reference.facets == bz.reference.facets


def test_bundle_save_idempotent(tmp_path):
    bz = inst.gen_bz(3)
    inst.save_bundle(bz, tmp_path)
    inst.save_bundle(bz, tmp_path)
    lines = [l for l in (tmp_path / "manifest.txt").read_text().splitlines() if l]
    assert lines == ["instance bz3 n=3"]


def test_load_bundle_single_instance_needs_no_name(tmp_path):
    inst.save_bundle(inst.gen_bz(4), tmp_path)
    assert inst.load_bundle(tmp_path).name == "bz4"


def test_load_bundle_errors(tmp_path):
    with pytest.raises(ValueError):
        inst.load_bundle(tmp_path)
    inst.save_bundle(inst.gen_bz(3), tmp_path)
    inst.save_bundle(inst.gen_bz(4), tmp_path)
    with pytest.raises(ValueError):
        inst.load_bundle(tmp_path)  # ambiguous
    with pytest.raises(ValueError):
        inst.load_bundle(tmp_path, "nope")


@pytest.mark.parametrize("body, message", [
    ("ef\nxvars 3\nyvars 0\nineq 1/0 1 1 >= 2\n", "bad rational '1/0'"),
    ("ef\nxvars 3\nyvars 0\nineq 1 x 1 >= 2\n", "bad rational 'x'"),
    ("ef\nxvars 3\nyvars 0\nineq 1 1 >= 2\n", "bad ineq line"),
    ("xvars 3\nineq 1 1 1 >= 2\n", "expected header line 'ef'"),
    ("ef\nxvars 2\nyvars 0\nineq 1 1 >= 2\n", "reference is over 2 variables, expected 3"),
    ("ef\nxvars 3\nyvars 1\nineq 1 >= 0\nproj 1 0 1\nproj 2 0 1\nproj 3 0 1\n",
     "x-space file"),
])
def test_load_bundle_bad_reference_raises_value_error(tmp_path, body, message):
    inst.save_bundle(inst.gen_bz(3), tmp_path)
    (tmp_path / "bz3.ef").write_text(body)
    with pytest.raises(ValueError, match=message):
        inst.load_bundle(tmp_path)


def test_load_bundle_keeps_reference_rows_and_refolds_equations(tmp_path):
    inst.save_bundle(inst.gen_bz(3), tmp_path)
    # the box rows are not added; the +-pair comes back as one equation
    (tmp_path / "bz3.ef").write_text(
        "ef\nxvars 3\nyvars 0\n# comment\nineq 1 1 1 >= 2\n"
        "ineq 1/2 0 -1 >= 0\nineq -1/2 0 1 >= 0\n")
    ref = inst.load_bundle(tmp_path).reference
    assert ref.facets == (((1, 1, 1), 2),)
    assert ref.equations == (((Fraction(1, 2), 0, -1), 0),)
