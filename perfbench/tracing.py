"""Layer spans for the traced benchmark run.

The benchmark's own files wrap the public entry points of each layer at
the import sites its callers use (``install``), record one span per call
in memory (``Recorder``), write the spans out when the run ends, and turn
them into per-layer metrics (``layer_metrics``).  Nothing under ``src/``
knows about any of this: uninstalling restores every original attribute.

A span is (name, start, end, parent span, trial id).  Spans nest through
a stack, so within one process a span's children are disjoint intervals
inside it, and its self time is its duration minus theirs.  Pool workers
inherit the wrappers through ``fork``; each worker resets its buffers
after the fork and writes its own span file when it exits, and the
files are merged when the metrics are computed.
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
import time
from array import array
from multiprocessing import util
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LAYER_METRICS",
    "Recorder",
    "install",
    "layer_metrics",
    "load_span_files",
    "self_times",
]

#: Every per-layer metric of a traced run, with its unit, in output order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("crypto.sign.calls", "count"),
    ("crypto.sign.self_s", "s"),
    ("crypto.verify.calls", "count"),
    ("crypto.verify.self_s", "s"),
    ("crypto.verify.accept_frac", "ratio"),
    ("crypto.combine.calls", "count"),
    ("crypto.combine.self_s", "s"),
    ("crypto.oracle.calls", "count"),
    ("crypto.oracle.self_s", "s"),
    ("crypto.deal.calls", "count"),
    ("crypto.deal.s", "s"),
    ("network.run.calls", "count"),
    ("network.run.self_s", "s"),
    ("network.count_signatures.calls", "count"),
    ("network.count_signatures.self_s", "s"),
    ("network.rounds", "count"),
    ("network.messages", "count"),
    ("network.faults.injected", "count"),
    ("core.step.calls", "count"),
    ("core.step.self_s", "s"),
    ("adversary.decide.calls", "count"),
    ("adversary.decide.self_s", "s"),
    ("adversary.observe.calls", "count"),
    ("adversary.observe.self_s", "s"),
    ("engine.trial.calls", "count"),
    ("engine.trial.self_s", "s"),
    ("engine.execute_chunk.self_s", "s"),
    ("engine.predeal.s", "s"),
    ("engine.pack.s", "s"),
    ("engine.unpack.s", "s"),
    ("engine.payload_bytes", "bytes"),
    ("engine.chunks", "count"),
    ("engine.worker_busy_frac", "ratio"),
    ("vectorized.batch.calls", "count"),
    ("vectorized.batch.self_s", "s"),
    ("vectorized.batch.trials", "count"),
    ("vectorized.probe.calls", "count"),
    ("vectorized.probe.s", "s"),
    ("vectorized.probe_cache.hits", "count"),
    ("vectorized.probe_cache.misses", "count"),
    ("vectorized.probe_hit_frac", "ratio"),
    ("vectorized.replicated_frac", "ratio"),
    ("vectorized.fallback", "count"),
    ("obs.collector.calls", "count"),
    ("obs.collector.self_s", "s"),
    ("obs.merge.calls", "count"),
    ("obs.merge.s", "s"),
    ("trace.trials", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


class Recorder:
    """In-memory span store for one process, in columnar arrays.

    ``open``/``close`` are the hot path: one array append per column and
    a stack push/pop, no allocation per span beyond the array growth.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.role = "parent"
        self.active = False
        self._name_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._reset()

    def _reset(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.stack: List[int] = []
        self.trial_id = -1
        self.counts: Counter = Counter()
        # Objects whose counts are taken at flush time, off the timed path.
        self.run_results: List[Tuple[Any, Any]] = []
        self.packed: List[Any] = []
        self.cpu_origin = time.process_time()

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def after_fork_in_child(self) -> None:
        """Start a fresh span buffer in a forked pool worker."""
        if not self.active:
            return
        self.role = "worker"
        self._reset()
        util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> str:
        """Write this process's spans and counts; returns the file path."""
        cpu_s = time.process_time() - self.cpu_origin
        counts = Counter(self.counts)
        for metrics, fault_counts in self.run_results:
            counts["network.rounds"] += metrics.rounds
            counts["network.messages"] += sum(
                stats.honest_messages + stats.corrupt_messages
                for stats in metrics.per_round.values()
            )
            if fault_counts is not None:
                counts["network.faults.injected"] += (
                    fault_counts.delayed + fault_counts.suppressed
                )
        for summary in self.packed:
            counts["engine.payload_bytes"] += len(pickle.dumps(summary))
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "role": self.role,
                    "pid": os.getpid(),
                    "cpu_s": cpu_s,
                    "names": list(self.names),
                    "name": self.name.tobytes(),
                    "start": self.start.tobytes(),
                    "end": self.end.tobytes(),
                    "parent": self.parent.tobytes(),
                    "trial": self.trial.tobytes(),
                    "counts": dict(counts),
                },
                handle,
            )
        return path


# ── Wrappers ─────────────────────────────────────────────────────────────


def _span(rec: Recorder, name: str, fn: Callable) -> Callable:
    name_id = rec.intern(name)
    opened, closed = rec.open, rec.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = opened(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            closed(index)

    return traced


def _verify_span(rec: Recorder, fn: Callable) -> Callable:
    """A ``crypto.verify`` span that also counts accepted verifications."""
    name_id = rec.intern("crypto.verify")
    opened, closed = rec.open, rec.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = opened(name_id)
        try:
            accepted = fn(*args, **kwargs)
        finally:
            closed(index)
        if accepted:
            rec.counts["crypto.verify.accepted"] += 1
        return accepted

    return traced


class _TracedProgram:
    """A party program whose every ``send`` is a ``core.step`` span."""

    __slots__ = ("_program", "_opened", "_closed", "_name_id")

    def __init__(self, program, rec: Recorder, name_id: int) -> None:
        self._program = program
        self._opened = rec.open
        self._closed = rec.close
        self._name_id = name_id

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        index = self._opened(self._name_id)
        try:
            return self._program.send(value)
        finally:
            self._closed(index)

    def throw(self, *args):
        return self._program.throw(*args)

    def close(self):
        return self._program.close()


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that unwraps."""
    from repro.crypto import coin, ideal, rsa, threshold_rsa, vrf_coin
    from repro.engine import runner, transport, vectorized
    from repro.network import metrics as net_metrics
    from repro.network import simulator, trace
    from repro.obs.metrics import MetricsRegistry

    patches = _Patches()
    if not rec.active:
        # Runs in each multiprocessing child after its finalizer registry
        # is cleared, so the flush registered there survives.
        util.register_after_fork(rec, Recorder.after_fork_in_child)
    rec.active = True

    # crypto: scheme sign*/verify*/combine, and the random oracle.
    for scheme in (
        ideal.IdealSignatureScheme,
        ideal.IdealThresholdScheme,
        rsa.RsaSignatureScheme,
        threshold_rsa.ThresholdRsaScheme,
    ):
        for attr in ("sign", "sign_share"):
            if attr in scheme.__dict__:
                patches.set(scheme, attr, _span(rec, "crypto.sign", scheme.__dict__[attr]))
        for attr in ("verify", "verify_share"):
            if attr in scheme.__dict__:
                patches.set(scheme, attr, _verify_span(rec, scheme.__dict__[attr]))
        for attr in ("combine", "combined_bytes"):
            if attr in scheme.__dict__:
                patches.set(scheme, attr, _span(rec, "crypto.combine", scheme.__dict__[attr]))
    # oracle_digest has no caller outside random_oracle; its calls are
    # inside these hash_to_* spans.
    for module, attrs in (
        (coin, ("hash_to_range",)),
        (vrf_coin, ("hash_to_int", "hash_to_range")),
        (threshold_rsa, ("hash_to_int",)),
        (rsa, ("hash_to_int",)),
        (vectorized, ("hash_to_range",)),
    ):
        for attr in attrs:
            patches.set(module, attr, _span(rec, "crypto.oracle", module.__dict__[attr]))
    patches.set(runner, "deal_suite", _span(rec, "crypto.deal", runner.deal_suite))

    # network: simulator runs and the signature walk.
    original_run = simulator.SyncSimulator.run
    run_id = rec.intern("network.run")

    @functools.wraps(original_run)
    def traced_run(self, factory, inputs):
        index = rec.open(run_id)
        try:
            result = original_run(self, factory, inputs)
        finally:
            rec.close(index)
        faults = self.last_fault_counts if self.faults is not None else None
        rec.run_results.append((result.metrics, faults))
        return result

    patches.set(simulator.SyncSimulator, "run", traced_run)
    for module in (simulator, trace, net_metrics):
        patches.set(
            module,
            "count_signatures",
            _span(rec, "network.count_signatures", module.__dict__["count_signatures"]),
        )

    # core: the generators of the registered program factories.
    step_id = rec.intern("core.step")
    original_factory = runner.build_protocol_factory

    @functools.wraps(original_factory)
    def traced_factory(name, params):
        factory = original_factory(name, params)

        def build(ctx, value):
            return _TracedProgram(factory(ctx, value), rec, step_id)

        return build

    patches.set(runner, "build_protocol_factory", traced_factory)

    # adversary: decide/observe of every adversary the engine builds.
    for module in (runner, vectorized):
        original_adversary = module.__dict__["build_adversary"]

        def traced_adversary(name, params, factory, _build=original_adversary):
            adversary = _build(name, params, factory)
            if adversary is not None:
                adversary.decide = _span(rec, "adversary.decide", adversary.decide)
                adversary.observe = _span(rec, "adversary.observe", adversary.observe)
            return adversary

        patches.set(module, "build_adversary", traced_adversary)

    # engine: trials, chunks, predeal, and the compact transport.
    trial_id = rec.intern("engine.trial")
    original_trial = runner.run_trial

    @functools.wraps(original_trial)
    def traced_trial(spec, *args, **kwargs):
        outer = rec.trial_id
        rec.trial_id = spec.seed
        index = rec.open(trial_id)
        try:
            return original_trial(spec, *args, **kwargs)
        finally:
            rec.close(index)
            rec.trial_id = outer

    patches.set(runner, "run_trial", traced_trial)

    chunk_id = rec.intern("engine.execute_chunk")
    original_chunk = runner.execute_chunk

    @functools.wraps(original_chunk)
    def traced_chunk(*args, **kwargs):
        index = rec.open(chunk_id)
        try:
            pairs, stats = original_chunk(*args, **kwargs)
        finally:
            rec.close(index)
        rec.counts["vectorized.fallback"] += stats["fallback"]
        rec.counts["vectorized.probe_cache.hits"] += stats.get("cache_hits", 0)
        rec.counts["vectorized.probe_cache.misses"] += stats.get("cache_misses", 0)
        return pairs, stats

    patches.set(runner, "execute_chunk", traced_chunk)
    patches.set(runner, "predeal_suites", _span(rec, "engine.predeal", runner.predeal_suites))

    summary = transport.ChunkSummary
    original_pack = summary.__dict__["pack"].__func__
    pack_id = rec.intern("engine.pack")

    @functools.wraps(original_pack)
    def traced_pack(cls, *args, **kwargs):
        index = rec.open(pack_id)
        try:
            packed = original_pack(cls, *args, **kwargs)
        finally:
            rec.close(index)
        rec.packed.append(packed)
        return packed

    patches.set(summary, "pack", classmethod(traced_pack))
    for attr in ("unpack", "unpack_metrics"):
        patches.set(summary, attr, _span(rec, "engine.unpack", summary.__dict__[attr]))

    # vectorized: lockstep batches (probes are the network.run spans inside).
    batch_id = rec.intern("vectorized.batch")
    original_batch = vectorized.run_vector_batch

    @functools.wraps(original_batch)
    def traced_batch(specs):
        specs = list(specs)
        rec.counts["vectorized.batch.trials"] += len(specs)
        index = rec.open(batch_id)
        try:
            return original_batch(specs)
        finally:
            rec.close(index)

    patches.set(vectorized, "run_vector_batch", traced_batch)

    # obs: the metrics collector hooks and the registry merge.
    for attr in ("on_message", "on_fault", "finalize_trial"):
        patches.set(
            MetricsRegistry, attr, _span(rec, "obs.collector", MetricsRegistry.__dict__[attr])
        )
    patches.set(MetricsRegistry, "merge", _span(rec, "obs.merge", MetricsRegistry.__dict__["merge"]))

    def uninstall() -> None:
        rec.active = False
        patches.undo()

    return uninstall


# ── Analysis ─────────────────────────────────────────────────────────────


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    ``parent`` holds the index of each span's parent (-1 for roots).
    Children recorded through a stack are disjoint and lie inside their
    parent, so the time they cover is the sum of their durations.
    """
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def _under(names: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    inside = np.zeros(len(names), dtype=bool)
    hop = parent.copy()
    while True:
        live = hop >= 0
        if not live.any():
            return inside
        inside[live] |= names[hop[live]] == ancestor
        hop[live] = parent[hop[live]]


class SpanTable:
    """All spans of one traced run, merged across processes."""

    def __init__(self, files: Sequence[Dict[str, Any]]) -> None:
        vocabulary: List[str] = []
        for data in files:
            for name in data["names"]:
                if name not in vocabulary:
                    vocabulary.append(name)
        self.vocabulary = vocabulary
        batch = vocabulary.index("vectorized.batch") if "vectorized.batch" in vocabulary else -1
        columns: Dict[str, List[np.ndarray]] = {
            key: [] for key in ("name", "start", "end", "self", "probe", "worker")
        }
        self.counts: Counter = Counter()
        self.worker_cpu_s = 0.0
        # (first span start, last span end) of each pool worker.
        self.worker_extents: List[Tuple[int, int]] = []
        for data in files:
            local = np.frombuffer(data["name"], dtype=np.int32)
            remap = np.array(
                [vocabulary.index(name) for name in data["names"]], dtype=np.int32
            )
            names = remap[local] if len(local) else local
            start = np.frombuffer(data["start"], dtype=np.int64)
            end = np.frombuffer(data["end"], dtype=np.int64)
            parent = np.frombuffer(data["parent"], dtype=np.int64)
            columns["name"].append(names)
            columns["start"].append(start)
            columns["end"].append(end)
            columns["self"].append(self_times(start, end, parent))
            columns["probe"].append(_under(names, parent, batch))
            worker = data["role"] == "worker"
            columns["worker"].append(np.full(len(names), worker))
            self.counts.update(data["counts"])
            if worker:
                self.worker_cpu_s += data["cpu_s"]
                if len(start):
                    self.worker_extents.append((int(start.min()), int(end.max())))
        self.columns = {
            key: np.concatenate(parts) if parts else np.zeros(0)
            for key, parts in columns.items()
        }

    def within(self, start_ns: int, end_ns: int) -> np.ndarray:
        cols = self.columns
        return (cols["start"] >= start_ns) & (cols["end"] <= end_ns)

    def select(self, name: str, mask: Optional[np.ndarray] = None) -> np.ndarray:
        if name not in self.vocabulary:
            return np.zeros(len(self.columns["name"]), dtype=bool)
        chosen = self.columns["name"] == self.vocabulary.index(name)
        return chosen if mask is None else chosen & mask


def load_span_files(out_dir: str) -> List[Dict[str, Any]]:
    """Every span file a traced run wrote (parent and pool workers)."""
    files = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.pkl"))):
        with open(path, "rb") as handle:
            files.append(pickle.load(handle))
    return files


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: SpanTable,
    section: Tuple[int, int],
    trials: int,
    workers: int,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced section, named as in LAYER_METRICS.

    ``section`` bounds (perf_counter_ns) the traced repetition; spans the
    set-up phase recorded before it count only toward ``crypto.deal`` and
    ``engine.predeal``.  ``trace.coverage_frac`` is taken over the
    processes that run trials: the whole section of an inline run, or
    each pool worker from its first span to its last (a pool parent
    mostly waits on its workers, which is not untraced work).
    """
    cols = table.columns
    inside = table.within(*section)
    out: Dict[str, float] = {}

    def calls(name: str, mask=inside) -> int:
        return int(table.select(name, mask).sum())

    def self_s(name: str, mask=inside) -> float:
        return float(cols["self"][table.select(name, mask)].sum()) / 1e9

    def total_s(name: str, mask=inside) -> float:
        chosen = table.select(name, mask)
        return float((cols["end"][chosen] - cols["start"][chosen]).sum()) / 1e9

    for name in (
        "crypto.sign", "crypto.verify", "crypto.combine", "crypto.oracle",
        "network.run", "network.count_signatures", "core.step",
        "adversary.decide", "adversary.observe", "engine.trial",
        "vectorized.batch", "obs.collector",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["crypto.verify.accept_frac"] = _ratio(
        table.counts["crypto.verify.accepted"], out["crypto.verify.calls"]
    )
    everywhere = np.ones(len(cols["name"]), dtype=bool)
    out["crypto.deal.calls"] = calls("crypto.deal", everywhere)
    out["crypto.deal.s"] = total_s("crypto.deal", everywhere)
    out["engine.predeal.s"] = total_s("engine.predeal", everywhere)
    out["engine.execute_chunk.self_s"] = self_s("engine.execute_chunk")
    out["engine.pack.s"] = total_s("engine.pack")
    out["engine.unpack.s"] = total_s("engine.unpack")
    out["engine.chunks"] = calls("engine.pack")
    out["engine.payload_bytes"] = table.counts["engine.payload_bytes"]
    wall_s = (section[1] - section[0]) / 1e9
    out["engine.worker_busy_frac"] = _ratio(table.worker_cpu_s, workers * wall_s) if workers > 1 else 0.0
    for key in ("network.rounds", "network.messages", "network.faults.injected"):
        out[key] = table.counts[key]
    probes = table.select("network.run", inside & cols["probe"])
    out["vectorized.probe.calls"] = int(probes.sum())
    out["vectorized.probe.s"] = float((cols["end"][probes] - cols["start"][probes]).sum()) / 1e9
    hits = table.counts["vectorized.probe_cache.hits"]
    misses = table.counts["vectorized.probe_cache.misses"]
    out["vectorized.probe_cache.hits"] = hits
    out["vectorized.probe_cache.misses"] = misses
    out["vectorized.probe_hit_frac"] = _ratio(hits, hits + misses)
    out["vectorized.replicated_frac"] = max(0.0, 1.0 - _ratio(out["network.run.calls"], trials))
    out["vectorized.batch.trials"] = table.counts["vectorized.batch.trials"]
    out["vectorized.fallback"] = table.counts["vectorized.fallback"]
    out["obs.merge.calls"] = calls("obs.merge")
    out["obs.merge.s"] = total_s("obs.merge")
    out["trace.trials"] = trials
    out["trace.spans"] = int(inside.sum())
    out["trace.overhead_frac"] = _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
    if workers > 1:
        covered = cols["self"][inside & cols["worker"]].sum()
        busy = sum(last - first for first, last in table.worker_extents)
    else:
        covered = cols["self"][inside].sum()
        busy = section[1] - section[0]
    out["trace.coverage_frac"] = _ratio(float(covered), busy)
    return {name: out[name] for name, _ in LAYER_METRICS}
