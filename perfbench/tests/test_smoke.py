"""Tiny end-to-end runs of every workload, and the refusal paths of run.py."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import measure
import run
import tracing
import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "MIN_LATENCY_SAMPLES", 20)
    result = measure.timed(workloads.WORKLOADS[name], seed=3, seconds=0.1,
                           out_dir=str(tmp_path), scale=0.03)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {n for n, _ in workloads.END_TO_END} - {"setup_s"}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke(name, tmp_path):
    result = measure.traced(workloads.WORKLOADS[name], seed=3, out_dir=str(tmp_path), scale=0.03)
    assert result["correct"], result["problems"]
    layers = result["metrics"]
    assert list(layers) == [n for n, _ in tracing.LAYER_METRICS]
    assert 0.8 < layers["trace.coverage_frac"] < 1.2
    assert layers["network.run.calls"] > 0
    if name == "vector_sweep":
        assert layers["vectorized.fallback"] == 0
        assert layers["vectorized.replicated_frac"] > 0.5
    if name == "faulty_pool":
        assert layers["obs.collector.calls"] > 0
        assert layers["network.faults.injected"] > 0
    assert os.path.isfile(os.path.join(tmp_path, f"trace-{name}", "layers.json"))


def test_gate_fails_a_wrong_round_count():
    workload = workloads.WORKLOADS["object_sweep"]
    plan = workloads.build_plan(workload, seed=1, scale=0.05)
    facts = [workloads.Facts(rounds=spec.param_dict["kappa"] + 1 if spec.protocol == "ba_one_third"
                             else 3 * spec.param_dict["kappa"] // 2,
                             complete=True, agree=True, digest=b"")
             for spec in plan.trials]
    assert workloads.check_results(plan, facts) == (set(), [])
    facts[0] = facts[0]._replace(rounds=facts[0].rounds + 1)
    failed, problems = workloads.check_results(plan, facts)
    assert failed == {0} and "expected" in problems[0]


def test_gate_fails_a_disagreement_rate_far_above_the_bound():
    workload = workloads.WORKLOADS["object_sweep"]
    plan = workloads.build_plan(workload, seed=1, scale=0.25)
    config, indices = next(iter(plan.configs().items()))
    facts = [workloads.Facts(rounds=workloads.expected_rounds(spec), complete=True,
                             agree=True, digest=b"") for spec in plan.trials]
    for index in indices:
        facts[index] = facts[index]._replace(agree=False)
    failed, problems = workloads.check_results(plan, facts)
    assert failed == set(indices)
    assert config in problems[0]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "object_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_run_rejects_an_unknown_workload():
    done = subprocess.run(
        [sys.executable, run.__file__, "--workload", "nope", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
