"""Tests of the benchmark itself: its independent counts, and that each
checker rejects a corrupted answer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from ordspace import euclid, line, orddist  # noqa: E402
from ordspace.census import CensusFilter, census_report  # noqa: E402
from ordspace.space import OrdinalSpace  # noqa: E402


def test_line_classes_are_the_papers_fourteen():
    assert len(gen.line_classes4(4)) == 14
    assert gen.line_classes4(4) == gen.line_classes4(8)


def test_independent_counts():
    assert checks.orbit_count(3, injective=False) == 4
    assert checks.orbit_count(4, injective=False) == 225
    assert checks.orbit_count(5, injective=True) == 30240
    assert checks.min_injective_balls(3) == 6
    assert checks.min_injective_balls(4) == 9


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.distance_inputs(5) == gen.distance_inputs(5)
    assert gen.embed_inputs(5) == gen.embed_inputs(5)
    assert gen.embed_inputs(5) != gen.embed_inputs(6)


def _space(ranks):
    return OrdinalSpace.from_rows(ranks)


def _embed_item(kind):
    return next(it for it in gen.embed_inputs(0) if it.kind == kind and len(it.ranks) == 6)


def test_line_witness_with_two_gaps_swapped_is_rejected():
    item = _embed_item("line")
    w = line.embed_line(_space(item.ranks))
    assert checks.check_line_witness(item.ranks, w) == []
    gaps = list(w.gaps)
    i, j = next((i, j) for i in range(len(gaps)) for j in range(i) if gaps[i] != gaps[j])
    gaps[i], gaps[j] = gaps[j], gaps[i]
    assert checks.check_line_witness(item.ranks, dataclasses.replace(w, gaps=tuple(gaps)))


def test_refusal_needs_a_rejected_four_point_subspace():
    item = _embed_item("plane")
    s = _space(item.ranks)
    assert line.embed_line(s) is None

    def subspace_of(pts):
        return _space(gen.dense_ranks(4, lambda i, j: item.ranks[pts[i]][pts[j]]))

    assert checks.check_negative(item.ranks, None, line.classify_four_point, subspace_of) == []
    assert checks.check_negative(item.ranks, None, lambda sub: "d1", subspace_of)


def test_certificate_with_one_diag_entry_changed_is_rejected():
    item = _embed_item("plane")
    w = euclid.realize_simplex(_space(item.ranks))
    assert checks.check_certificate(item.ranks, w) == []
    cert = w.certificate
    bad = dataclasses.replace(cert, diag=(cert.diag[0] * 3,) + cert.diag[1:])
    assert checks.check_certificate(item.ranks, dataclasses.replace(w, certificate=bad))


def test_distance_one_too_low_is_rejected():
    for item in gen.distance_inputs(0):
        if item.kind == "far" and len(item.ranks_a) == 6:
            break
    a, b = _space(item.ranks_a), _space(item.ranks_b)
    result = orddist.d_ord(a, b)
    exhaustive = checks.exhaustive_distance(item.ranks_a, item.ranks_b)
    assert checks.check_distance(item, result, None, False, exhaustive) == []
    low = dataclasses.replace(result, value=result.value - 1)
    assert checks.check_distance(item, low, None, False, exhaustive)


def test_exhaustive_distance_matches_the_package_oracle():
    rng = random.Random(3)
    for n in (4, 5):
        for _ in range(5):
            ra, rb = gen.random_injective(rng, n), gen.random_injective(rng, n)
            assert checks.exhaustive_distance(ra, rb) == orddist.d_ord_oracle(_space(ra), _space(rb))[0]


def test_class_count_off_by_one_is_rejected():
    report = census_report(4, CensusFilter.ALL)
    classes, minimum = checks.orbit_count(4, False), checks.min_injective_balls(4)
    assert checks.check_census_ties(report, classes, minimum) == []
    bad = dataclasses.replace(report, total_nonisomorphic=report.total_nonisomorphic + 1)
    assert checks.check_census_ties(bad, classes, minimum)

    levels = tuple(range(1, 11))
    witness = _space(gen.ranks_of(levels, 5))
    extremes = SimpleNamespace(min_witness=witness, min_balls_distinct=checks.ball_count(witness.ranks))
    fake = SimpleNamespace(total_nonisomorphic=30240, extremes=extremes)
    assert checks.check_census_injective(fake, 30240, [levels]) == []
    fake.total_nonisomorphic = 30239
    assert checks.check_census_injective(fake, 30240, [levels])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_traced_run_reports_every_layer_metric():
    from spans import PER_LAYER

    out = _run(ROOT, "--workload", "distance", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == len(gen.distance_inputs(1))
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["orddist.d_ord_calls"] == 1 and metrics["formats.parse_calls"] == 2
    assert metrics["line.embed_line_calls"] == 0


@pytest.mark.parametrize("workload", ["census_ties", "embed"])
def test_without_the_package_source_the_run_fails(tmp_path, workload):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
