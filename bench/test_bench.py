"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run every workload briefly, check that the span wrapper leaves the
formlift modules as it found them, and check that a wrong reference answer
shows up as a failed operation.
"""

import importlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    if trace == "1":
        expected = {m["name"]: m["unit"] for m in wanted}
        expected.update({"hull.equals_hull_s": "s/pass", "polytope.text_s": "s/pass",
                         "instances.self_s": "s"})
    else:
        kind = "query" if workload == "lift-optimize" else "check"
        expected = {"ops_per_s": "1/s", f"{kind}_p50_s": "s", f"{kind}_tail_s": "s",
                    "failed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        if workload == "lift-optimize":
            expected["build_s"] = "s"
    for name, unit in expected.items():
        assert printed.get(name) == unit, (name, printed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _modules():
    return {layer: importlib.import_module(f"formlift.{layer}") for layer in spans.LAYERS}


def test_tracer_restores_every_module_attribute():
    mods = _modules()
    before = {(layer, name): fn for layer, m in mods.items()
              for name, fn in spans.public_functions(m)}
    assert ("lpsolve", "is_empty") in before and ("cli", "dispatch") in before
    with spans.Tracer() as tracer:
        tracer.install(mods)
        assert mods["lpsolve"].is_empty is not before[("lpsolve", "is_empty")]
        phi = mods["formula"].parse("x1 | x2 & !x3")
        rep = mods["verify"].check_integrality(phi, mods["polytope"].cube(3))
        assert rep.passed
    after = {(layer, name): getattr(mods[layer], name) for layer, name in before}
    assert all(after[k] is before[k] for k in before)
    # the call from polytope.lift into lpsolve was caught, under its parent
    by_name = [(s.layer, s.name) for s in tracer.spans]
    i = by_name.index(("lpsolve", "is_empty"))
    chain = []
    while i >= 0:
        chain.append(by_name[i])
        i = tracer.spans[i].parent
    assert ("polytope", "lift") in chain and chain[-1] == ("verify", "check_integrality")
    m = spans.layer_metrics(tracer.spans)
    assert m["verify.checks"][0] == 1
    assert m["polytope.emptiness_checks"][0] >= 1
    assert 0 < m["polytope.emptiness_wait_s"][0] <= m["lpsolve.emptiness_s"][0]


def test_wrong_reference_shows_in_failed_frac(tmp_path, monkeypatch):
    real = oracle.hull_reference

    def shifted(hull, phi, rounds):
        ref = real(hull, phi, rounds)
        # move every vertex by one unit along x1: every optimum with a
        # nonzero x1 coefficient is now wrong
        ref.vertices = tuple((v[0] + 1,) + tuple(v[1:]) for v in ref.vertices)
        return ref

    monkeypatch.setattr(oracle, "hull_reference", shifted)
    mods = run._fresh_modules()
    with run._quiet():
        plan = workloads.lift_optimize(mods, 5, tmp_path)
    plan.reference()
    records = run._run_ops(mods["cli"], next(plan.passes()), [])
    metrics, _ = run.end_to_end(records, [(0, len(records), 1.0)], plan.latency_kind, [0.1])
    assert 0 < metrics["failed_frac"][0] < 1


def test_oracle_matches_a_known_optimum():
    mods = _modules()
    phi = mods["instances"].gen_bz(5).formula
    ref = oracle.hull_reference(mods["hull"], phi, 2)
    assert ref.optimum((1, 1, 1, 1, 1), "min") == 2
    assert ref.contains((Fraction(1, 2),) * 5)
    assert not ref.contains((Fraction(1, 4),) * 5)


def test_seeds_pick_symmetric_images_of_the_formula_catalog():
    mods = _modules()
    sets = []
    for seed in (1, 2):
        texts = workloads._random_formulas(mods["verify"], mods["formula"],
                                           random.Random(seed), 12, 0.4)
        sets.append(texts)
    assert sets[0] != sets[1]
    sizes = [sorted(len(mods["formula"].enumerate_set(mods["formula"].parse(t, 4)).points)
                    for t in texts) for texts in sets]
    assert sizes[0] == sizes[1] and min(sizes[0]) > 0


def test_tail_has_ten_samples_beyond():
    assert run.tail(range(10)) == (None, None)
    assert run.tail(range(11)) == (100 / 11, 0)
    assert run.tail(range(200)) == (95, 189)
