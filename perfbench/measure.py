"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this script once per phase and reads the last line of
its standard output:

* ``--mode setup`` is the cold start: import ``repro``, build the plan,
  deal the suites that need pre-dealing, then print ``ready``.
* ``--mode timed`` warms up, repeats the plan with tracing off until
  ``--seconds`` have passed, checks every repetition, and prints the
  end-to-end figures as JSON, scaled to the reference host speed
  (``hostspeed.py``).
* ``--mode traced`` runs the plan once untraced and once with the layer
  wrappers of ``tracing.py`` installed, and prints the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402

from repro.engine import (  # noqa: E402
    ParallelRunner,
    TrialPlan,
    clear_probe_cache,
    clear_suite_cache,
    predeal_suites,
)
from repro.obs import MetricsRegistry, TelemetryWriter  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fewest timed repetitions a run reports a median over, and fewest
# latency samples it reports a p99 from (ten lie beyond it).
MIN_REPS = 3
MIN_LATENCY_SAMPLES = 1000

OUT_DIR = os.path.join(HERE, "_out")


@dataclass
class Rep:
    facts: List[workloads.Facts]
    started_ns: int
    ended_ns: int
    digest: str

    @property
    def wall_s(self) -> float:
        return (self.ended_ns - self.started_ns) / 1e9

    @property
    def stretch(self) -> Tuple[float, float]:
        """Start and end as ``time.perf_counter()`` readings."""
        return self.started_ns / 1e9, self.ended_ns / 1e9


def run_rep(
    workload: workloads.Workload,
    runner: ParallelRunner,
    plan: TrialPlan,
    timeline: Optional[hostspeed.Timeline] = None,
    gaps: Optional[List[Tuple[float, float]]] = None,
) -> Rep:
    """One repetition of the plan, as a fresh sweep process would run it.

    Dealt suites (and their tag memos) and vector probes are dropped
    first, because every new sweep pays for them; the heap is collected
    so each repetition starts from the same state.  Like ``run()``, the
    repetition keeps every result until it ends.  With ``timeline`` it
    ticks after every ``run_iter`` yield; with ``gaps`` the stretch
    between successive yields is appended to it.
    """
    clear_suite_cache()
    clear_probe_cache()
    gc.collect()
    sink: Optional[Dict[int, MetricsRegistry]] = {} if workload.metrics else None
    results: List[Any] = [None] * len(plan)
    started_ns = time.perf_counter_ns()
    last = started_ns / 1e9
    for indices, part in workloads.plan_parts(workload, plan):
        part_sink: Optional[Dict[int, MetricsRegistry]] = {} if sink is not None else None
        for index, result in runner.run_iter(part, metrics_sink=part_sink):
            results[indices[index]] = result
            if gaps is not None:
                now = time.perf_counter()
                gaps.append((last, now))
                last = now
            if timeline is not None:
                timeline.tick()
        if sink is not None:
            sink.update((indices[index], registry) for index, registry in part_sink.items())
    merged = b""
    if sink is not None:
        merged = MetricsRegistry.merged(sink[i] for i in range(len(plan))).pack()
    ended_ns = time.perf_counter_ns()
    facts = [workloads.trial_facts(result) for result in results]
    return Rep(facts, started_ns, ended_ns, workloads.plan_digest(facts, merged))


def replay_specs(
    replay: TrialPlan,
    indices: Sequence[int],
    facts: Dict[int, workloads.Facts],
    timeline: hostspeed.Timeline,
    latencies: List[Tuple[float, float]],
) -> None:
    """Replay the given specs inline on the object simulator, one at a time.

    What replaying one failing spec costs: the suite is dealt afresh and
    the heap collected before each replay, so a spec's replay starts from
    the same state, and meets the same collector pauses, every time.
    The stretch each replay takes is appended to ``latencies``.
    """
    runner = ParallelRunner()
    # Everything alive now (plans, the sweep's facts) is frozen, so the
    # per-replay collection only walks what the replays allocate.
    gc.collect()
    gc.freeze()
    try:
        for index in indices:
            plan = TrialPlan("replay", (replay.trials[index],))
            timeline.tick()
            clear_suite_cache()
            gc.collect()
            started = time.perf_counter()
            result = runner.run(plan).results[0]
            latencies.append((started, time.perf_counter()))
            facts[index] = workloads.trial_facts(result)
    finally:
        gc.unfreeze()


def _vector_fallbacks(path: str) -> int:
    """Trials the vector backend sent to the object simulator."""
    fallback = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("t") == "vector_batch":
                fallback += record["fallback"]
    return fallback


def _environment(workload: workloads.Workload, seed: int) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped pool workers."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


class Tally:
    """Trials attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, plan: TrialPlan, facts: List[workloads.Facts]) -> None:
        failed, problems = workloads.check_results(plan, facts)
        self.add(len(plan), len(failed), problems)

    def add(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: 10 - len(self.problems)])


def timed(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    out_dir: str = OUT_DIR,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """End-to-end figures; ``scale`` shrinks the plans for smoke tests.

    Every timing is scaled to the reference host speed.  An inline
    workload runs on one CPU with probes between its trials.  A pooled
    workload's repetitions use every CPU and are scaled by a sampler
    thread that probes each CPU in turn; its replays run inline, on one
    CPU, with probes between them.
    """
    with hostspeed.on_one_cpu() if workload.workers == 1 else nullcontext():
        return _timed(workload, seed, seconds, out_dir, scale)


def _timed(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    out_dir: str,
    scale: float,
) -> Dict[str, Any]:
    plan = workloads.build_plan(workload, seed, scale)
    tally = Tally()
    os.makedirs(out_dir, exist_ok=True)
    telemetry_path = os.path.join(out_dir, f"telemetry-{workload.name}.jsonl")
    with TelemetryWriter(telemetry_path) as telemetry:
        warm = run_rep(workload, workloads.make_runner(workload, telemetry=telemetry), plan)
    tally.check(plan, warm.facts)
    if workload.backend == "vector":
        fallback = _vector_fallbacks(telemetry_path)
        if fallback:
            tally.add(0, fallback, [f"{fallback} trials fell back to the object simulator"])

    inline = workload.workers == 1
    runner = workloads.make_runner(workload)
    replay = None
    if workload.replay_scale:
        replay = workloads.build_plan(workload, seed, workload.replay_scale * scale)
    replayed: Dict[int, workloads.Facts] = {}
    # A fixed shuffle, so every stretch of the run replays every cell.
    order = list(range(len(replay))) if replay is not None else []
    random.Random(0).shuffle(order)
    timeline = hostspeed.Timeline()
    latencies: List[Tuple[float, float]] = []
    # Each repetition with the clock that scales it: the run's timeline
    # inline, a sampler of its own when pooled.
    reps: List[Tuple[Any, Tuple[float, float]]] = []
    started = time.perf_counter()
    while True:
        with nullcontext(timeline) if inline else hostspeed.Sampler() as clock:
            rep = run_rep(workload, runner, plan, timeline if inline else None,
                          None if replay else latencies)
        reps.append((clock, rep.stretch))
        if rep.digest != warm.digest:
            tally.add(len(plan), len(plan), ["results differ between repetitions"])
        else:
            tally.check(plan, rep.facts)
        progress = min(1.0, (time.perf_counter() - started) / seconds)
        with nullcontext() if inline else hostspeed.on_one_cpu():
            if replay is not None:
                # Replays are spread over the whole run, between repetitions,
                # so no single slow stretch of the host decides the tail.
                target = len(order) if progress >= 1.0 else int(len(order) * progress)
                replay_specs(replay, order[len(replayed):target], replayed, timeline, latencies)
            timeline.probe()
        enough = len(latencies) >= MIN_LATENCY_SAMPLES or replay is not None
        if progress >= 1.0 and len(reps) >= MIN_REPS and enough:
            break

    if replay is not None:
        tally.check(replay, [replayed[i] for i in range(len(replay))])
        pairs = workloads.paired_indices(plan, replay)
        differ = [i for i, j in pairs if warm.facts[i].digest != replayed[j].digest]
        if differ:
            tally.add(0, len(differ), [f"{len(differ)} of {len(pairs)} replayed trials differ"])

    raw_rates = [len(plan) / clock.raw(*stretch) for clock, stretch in reps]
    rates = [len(plan) / clock.scaled(*stretch) for clock, stretch in reps]
    cuts = statistics.quantiles([timeline.scaled(*stretch) for stretch in latencies],
                                n=100, method="inclusive")
    raw_cuts = statistics.quantiles([timeline.raw(*stretch) for stretch in latencies],
                                    n=100, method="inclusive")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "trials_per_s": statistics.median(rates),
            "trial_ms_p50": cuts[49] * 1e3,
            "trial_ms_p99": cuts[98] * 1e3,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "unscaled": {
            "trials_per_s": statistics.median(raw_rates),
            "trial_ms_p50": raw_cuts[49] * 1e3,
            "trial_ms_p99": raw_cuts[98] * 1e3,
            "host_probe_s": timeline.median_probe_s,
        },
        "samples": {"repetitions": len(reps), "latency": len(latencies), "trials": len(plan)},
        "problems": tally.problems,
    }


def traced(
    workload: workloads.Workload,
    seed: int,
    out_dir: str = OUT_DIR,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """Per-layer figures; ``scale`` shrinks the plan for smoke tests."""
    plan = workloads.build_plan(workload, seed, scale)
    runner = workloads.make_runner(workload)
    tally = Tally()
    run_rep(workload, runner, plan)
    untraced = run_rep(workload, runner, plan)
    tally.check(plan, untraced.facts)

    out_dir = os.path.join(out_dir, f"trace-{workload.name}")
    shutil.rmtree(out_dir, ignore_errors=True)
    rec = tracing.Recorder(out_dir)
    uninstall = tracing.install(rec)
    try:
        clear_suite_cache()
        predeal_suites(plan, workload.workers)
        rep = run_rep(workload, runner, plan)
    finally:
        uninstall()
    rec.flush()
    tally.check(plan, rep.facts)
    if rep.digest != untraced.digest:
        tally.add(0, len(plan), ["traced results differ from untraced results"])
    table = tracing.SpanTable(tracing.load_span_files(out_dir))
    layers = tracing.layer_metrics(
        table, (rep.started_ns, rep.ended_ns), len(plan), workload.workers,
        rep.wall_s, untraced.wall_s,
    )
    with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as handle:
        json.dump(layers, handle, indent=1)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": layers,
        "samples": {"trials": len(plan), "spans": layers["trace.spans"]},
        "problems": tally.problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        predeal_suites(workloads.build_plan(workload, args.seed), workload.workers)
        print("ready", flush=True)
        return 0
    if args.mode == "timed":
        result = timed(workload, args.seed, args.seconds)
    else:
        result = traced(workload, args.seed)
    result["environment"] = _environment(workload, args.seed)
    result["units"] = tracing.LAYER_METRICS if args.mode == "traced" else workloads.END_TO_END
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
