"""The repo benchmark: one workload, one seed, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload object_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times the workload with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it makes a separate traced run and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Each
phase runs in a fresh interpreter (``measure.py``), so set-up is measured
cold and peak memory belongs to the measured run alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")

# Cold starts per run, half before and half after the measurement so
# they sample two stretches of the host's speed; set-up time is their median.
SETUP_RUNS = 6
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


def cold_start(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from starting a fresh interpreter until the first trial is
    ready, unscaled and scaled to the reference host speed by probes just
    before and after, on the CPU the interpreter runs on."""
    command = [sys.executable, MEASURE, "--mode", "setup", "--workload", workload, "--seed", str(seed)]
    with hostspeed.on_one_cpu():
        before = hostspeed.probe_seconds()
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            try:
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        after = hostspeed.probe_seconds()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run exited {proc.returncode} without getting ready")
    return elapsed, elapsed * 2 * hostspeed.REFERENCE_S / (before + after)


def measure(workload: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    command = [
        sys.executable, MEASURE,
        "--mode", "traced" if traced else "timed",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"measurement exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside perfbench/; run from a repro checkout",
              file=sys.stderr)
        return 2

    try:
        cold_starts = 0 if args.trace else SETUP_RUNS // 2
        setup = [cold_start(args.workload, args.seed) for _ in range(cold_starts)]
        child = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        setup += [cold_start(args.workload, args.seed) for _ in range(cold_starts)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    figures = dict(child["metrics"])
    if setup:
        figures["setup_s"] = statistics.median(scaled for _, scaled in setup)
        child["unscaled"]["setup_s"] = statistics.median(elapsed for elapsed, _ in setup)
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in child["units"]}

    print("environment " + json.dumps(child["environment"]))
    print("samples " + json.dumps(dict(child["samples"], setup_runs=len(setup))))
    if "unscaled" in child:
        print("unscaled " + json.dumps(child["unscaled"]))
    for problem in child["problems"]:
        print(f"problem {problem}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
