"""
Self-tests of the benchmark; they run apart from the library's own tests:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import meshlab.distributions as dist  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from meshlab.distributions import MMP_Q1, Family  # noqa: E402
from meshlab.permutations import UP_DOWN  # noqa: E402
from tracer import Tracer, patch_everywhere  # noqa: E402


def test_enum_distinct_has_no_repeated_input():
    for seed in range(50):
        inputs = workloads.enum_inputs(seed)
        assert len(inputs) == 60
        assert len(set(inputs)) == 60


def test_same_seed_draws_same_inputs():
    assert workloads.enum_inputs(7) == workloads.enum_inputs(7)


def test_two_seeds_draw_different_specs_and_both_pass():
    assert workloads.draw_spec(1) != workloads.draw_spec(2)
    for seed in (1, 2):
        result = workloads.run_enum(workloads.enum_inputs(seed, max_length=7), workers=1)
        assert result.attempted == 7 * 2 * 5
        assert result.failed == 0, result.failures


def test_level_laws_makes_24_calls_over_9_inputs_and_matches_golden():
    # The recursion stands in for the oracle, so no enumeration runs.
    def oracle_by_recursion(length, cls, spec, **kwargs):
        assert spec == MMP_Q1
        return dist.family_polynomial(*workloads.family_row(length, cls))

    restore = patch_everywhere(dist.dist_brute, oracle_by_recursion)
    try:
        result = workloads.run_level_laws()
    finally:
        restore()
    workloads.check_golden(result, workloads.load_golden())
    assert result.counts["distributions.dist_brute.calls"] == 24
    assert result.counts["distributions.dist_brute.distinct"] == 9
    assert result.failed == 0, result.failures


def test_corrupted_result_raises_failures():
    original = dist.dist_brute

    def corrupt_one(length, cls, spec, **kwargs):
        out = original(length, cls, spec, **kwargs)
        return out + 1 if (length, cls, spec) == (5, UP_DOWN, MMP_Q1) else out

    restore = patch_everywhere(original, corrupt_one)
    try:
        result = workloads.run_enum(workloads.enum_inputs(1, max_length=6), workers=1)
    finally:
        restore()
    # The histogram sum and the recursion comparison both catch it.
    assert result.failed == 2
    assert result.failed / result.attempted > 0


def test_tracer_self_times_and_restore():
    original = dist.egf_family
    tracer = Tracer("test")
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            dist.egf_family(Family.A, 7)
    finally:
        tracer.uninstall()
    assert dist.egf_family is original
    summary = tracer.summary(wall_s=1.0)
    egf = summary["names"]["distributions.egf_family"]
    assert 0 <= egf["self_s"] <= egf["total_s"]
    assert summary["counts"]["algebra.solve_linear_ode.calls"] == 1
    assert summary["counts"]["algebra.ode_terms"] == 7 * 8 // 2
    assert summary["spans"] == len(tracer.dump())


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact-series", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
