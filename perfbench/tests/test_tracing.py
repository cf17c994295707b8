"""Span arithmetic, metric names, and the layer wrappers."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

import run
import tracing
import workloads
from repro.crypto import ideal
from repro.engine import runner, transport, vectorized
from repro.network import simulator
from repro.obs.metrics import MetricsRegistry

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 100) has children 1 [10, 40) and 2 [50, 90); 1 has 3 [20, 30).
    start = np.array([0, 10, 20, 50], dtype=np.int64)
    end = np.array([100, 40, 30, 90], dtype=np.int64)
    parent = np.array([-1, 0, 1, 0], dtype=np.int64)
    assert tracing.self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_self_times_of_a_tree_sum_to_its_roots():
    start = np.array([0, 1, 2, 3, 10, 11], dtype=np.int64)
    end = np.array([9, 8, 3, 7, 20, 12], dtype=np.int64)
    parent = np.array([-1, 0, 1, 1, -1, 4], dtype=np.int64)
    self_s = tracing.self_times(start, end, parent)
    assert self_s.sum() == 9 + 10
    assert (self_s >= 0).all()


def _span_file(role, names, rows, counts=None, cpu_s=1.0):
    """A span file as Recorder.flush writes it; rows are (name, start, end, parent)."""
    columns = list(zip(*rows)) if rows else [(), (), (), ()]
    return {
        "role": role,
        "pid": 1,
        "cpu_s": cpu_s,
        "names": names,
        "name": np.array(columns[0], dtype=np.int32).tobytes(),
        "start": np.array(columns[1], dtype=np.int64).tobytes(),
        "end": np.array(columns[2], dtype=np.int64).tobytes(),
        "parent": np.array(columns[3], dtype=np.int64).tobytes(),
        "trial": np.zeros(len(rows), dtype=np.int64).tobytes(),
        "counts": counts or {},
    }


def test_layer_metrics_on_a_synthetic_inline_run():
    names = ["engine.trial", "network.run", "crypto.verify", "vectorized.batch"]
    rows = [
        (0, 100, 1100, -1),  # engine.trial, self 1000 - 800 = 200 ns
        (1, 200, 1000, 0),   # network.run, self 800 - 300 = 500
        (2, 300, 600, 1),    # crypto.verify, self 300
        (3, 1200, 1900, -1), # vectorized.batch, self 700 - 500 = 200
        (1, 1300, 1800, 3),  # network.run inside a batch: a probe
        (1, 5000, 6000, -1), # outside the section
    ]
    table = tracing.SpanTable(
        [_span_file("parent", names, rows, {"crypto.verify.accepted": 1})]
    )
    got = tracing.layer_metrics(table, (0, 2000), 4, 1, 1.5, 1.0)
    assert [name for name, _ in tracing.LAYER_METRICS] == list(got)
    assert got["engine.trial.self_s"] == pytest.approx(200e-9)
    assert got["network.run.calls"] == 2
    assert got["network.run.self_s"] == pytest.approx(1000e-9)
    assert got["crypto.verify.self_s"] == pytest.approx(300e-9)
    assert got["crypto.verify.accept_frac"] == 1.0
    assert got["vectorized.probe.calls"] == 1
    assert got["vectorized.probe.s"] == pytest.approx(500e-9)
    assert got["vectorized.replicated_frac"] == pytest.approx(0.5)
    assert got["trace.coverage_frac"] == pytest.approx(1700 / 2000)
    assert got["trace.overhead_frac"] == pytest.approx(0.5)


def test_pool_coverage_is_taken_over_the_workers():
    names = ["engine.trial", "network.run"]
    worker = _span_file("worker", names, [(0, 100, 500, -1), (1, 200, 400, 0), (0, 600, 1100, -1)], cpu_s=2.0)
    parent = _span_file("parent", ["engine.unpack"], [(0, 1200, 1300, -1)])
    table = tracing.SpanTable([parent, worker])
    got = tracing.layer_metrics(table, (0, 2000), 2, 2, 1.0, 1.0)
    assert got["trace.coverage_frac"] == pytest.approx(900 / 1000)
    assert got["engine.worker_busy_frac"] == pytest.approx(2.0 / (2 * 2e-6))
    assert got["engine.unpack.s"] == pytest.approx(100e-9)


def test_every_name_fits_the_metric_alphabet():
    names = [name for name, _ in workloads.END_TO_END]
    names += [name for name, _ in tracing.LAYER_METRICS]
    names += list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def _digest(workload, plan):
    sink = {} if workload.metrics else None
    results = [None] * len(plan)
    for index, result in workloads.make_runner(workload).run_iter(plan, metrics_sink=sink):
        results[index] = result
    merged = MetricsRegistry.merged(sink.values()).pack() if sink else b""
    return workloads.plan_digest([workloads.trial_facts(r) for r in results], merged)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrappers_leave_results_byte_identical(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plan = workloads.build_plan(workload, seed=5, scale=0.02)
    before = _digest(workload, plan)
    originals = (
        runner.run_trial, runner.build_adversary, vectorized.run_vector_batch,
        simulator.SyncSimulator.run, simulator.count_signatures,
        ideal.IdealThresholdScheme.__dict__["combine"],
        transport.ChunkSummary.__dict__["pack"], MetricsRegistry.__dict__["merge"],
    )
    rec = tracing.Recorder(str(tmp_path))
    uninstall = tracing.install(rec)
    try:
        assert runner.run_trial is not originals[0]
        traced = _digest(workload, plan)
    finally:
        uninstall()
    assert traced == before
    assert rec.names and len(rec.start) > 0
    assert originals == (
        runner.run_trial, runner.build_adversary, vectorized.run_vector_batch,
        simulator.SyncSimulator.run, simulator.count_signatures,
        ideal.IdealThresholdScheme.__dict__["combine"],
        transport.ChunkSummary.__dict__["pack"], MetricsRegistry.__dict__["merge"],
    )
    assert _digest(workload, plan) == before


def test_pool_workers_write_their_own_span_files(tmp_path):
    workload = workloads.WORKLOADS["faulty_pool"]
    if workload.workers < 2:
        pytest.skip("needs two CPUs for a pool")
    plan = workloads.build_plan(workload, seed=6, scale=0.05)
    rec = tracing.Recorder(str(tmp_path))
    uninstall = tracing.install(rec)
    try:
        _digest(workload, plan)
    finally:
        uninstall()
    rec.flush()
    files = tracing.load_span_files(str(tmp_path))
    roles = sorted(data["role"] for data in files)
    assert roles == ["parent"] + ["worker"] * workload.workers
    table = tracing.SpanTable(files)
    assert int(table.select("engine.trial").sum()) == len(plan)
    assert int(table.select("engine.pack").sum()) > 0
