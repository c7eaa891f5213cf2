"""Per-layer spans recorded from the benchmark's own files.

:func:`install` wraps public callables of each layer of ``repro`` where
their callers look them up (module attributes, class attributes, and
the ``adaptive`` slot-kernel registry entry), so the program runs
unmodified and an untraced run never touches any of it.

Each wrapped call becomes one span: name, start, end, parent span and
the workload loop's slot id, kept in memory and written out when the run
ends.  A span's self time is its duration minus the time its child
spans cover.  Alongside the spans, the wrappers keep the counts the
per-layer metrics need (k-means iterations, re-index permutations,
kernel send decisions).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Every span name, in report order.
SPANS = (
    "clustering.update",
    "clustering.kmeans",
    "clustering.reindex",
    "clustering.reindex_nodes",
    "forecasting.offsets",
    "forecasting.membership",
    "forecasting.bank.fit",
    "forecasting.bank.update",
    "forecasting.bank.forecast",
    "pipeline.step",
    "session.ingest",
    "session.late",
    "session.churn",
    "transmission.kernel",
    "simulation.record_deliveries",
    "simulation.shard_pool.start",
    "simulation.shard_pool.collect",
    "links.transfer",
    "links.due",
    "checkpoint.snapshot",
    "checkpoint.save",
    "checkpoint.load",
    "checkpoint.restore",
    "metrics.rmse",
)

#: Spans reported per call instead of per measured slot.
PER_CALL = frozenset({"checkpoint.load", "checkpoint.restore"})


class Tracer:
    """In-memory span recorder.

    The workload loop sets :attr:`slot` to the slot it runs (None
    between slots) and :attr:`measuring` while the measured window is
    open; spans and counts outside that window are kept in the trace
    file but left out of per-slot figures.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.measuring = False
        self.slot: Optional[int] = None
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.slots: List[Optional[int]] = []
        self.measured: List[bool] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.slots.append(self.slot)
        self.measured.append(self.measuring)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named count, only inside the measured window."""
        if self.measuring:
            self.counts[key] += amount

    def summary(self, measured_slots: int) -> Dict[str, float]:
        """``<span>.ms`` (self ms per measured slot, or per call for
        :data:`PER_CALL` spans) and ``<span>.calls`` for every span,
        plus the ratios of the wrappers' counts."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        children = np.zeros_like(duration)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], duration[has_parent])
        self_ms = (duration - children) * 1e3
        names = np.asarray(self.names, dtype=object)
        measured = np.asarray(self.measured, dtype=bool)
        out: Dict[str, float] = {}
        for name in SPANS:
            mine = names == name
            if name in PER_CALL:
                calls = int(mine.sum())
                total = float(self_ms[mine].sum())
                out[f"{name}.ms"] = total / calls if calls else 0.0
            else:
                mine &= measured
                calls = int(mine.sum())
                out[f"{name}.ms"] = (
                    float(self_ms[mine].sum()) / max(measured_slots, 1)
                )
            out[f"{name}.calls"] = calls

        for metric, part, whole in (
            ("clustering.kmeans.iterations", "kmeans.iterations",
             "kmeans.runs"),
            ("clustering.reindex.permuted_ratio", "reindex.permuted",
             "reindex.matchings"),
            ("transmission.sent_ratio", "kernel.sent", "kernel.decisions"),
        ):
            whole_count = self.counts[whole]
            out[metric] = (
                self.counts[part] / whole_count if whole_count else 0.0
            )
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line:
        ``[name, start_s, end_s, parent, slot, measured]``."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(
                self.names, self.starts, self.ends, self.parents,
                self.slots, self.measured,
            ):
                name, start, end, parent, slot, measured = row
                handle.write(json.dumps([
                    name, round(start - origin, 9), round(end - origin, 9),
                    parent, slot, measured,
                ]) + "\n")


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    *,
    name_of: Optional[Callable[..., str]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name_of(*args, **kwargs) if name_of else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(result)
        return result

    return traced


def _patch(tracer: Tracer, owner: Any, attr: str, name: str, **kw: Any):
    setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), **kw))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables with spans of ``tracer``.

    Call before the engine or session is built: the slot kernel is
    resolved from the registry at session construction.
    """
    import repro.api as api
    import repro.clustering.dynamic as dynamic
    import repro.core.pipeline as pipeline
    from repro.checkpoint import Checkpoint
    from repro.forecasting.bank import ForecasterBank
    from repro.registry import SLOT_KERNELS, register_slot_kernel
    from repro.scenarios.links import NetworkLink
    from repro.session import StreamSession
    from repro.simulation.shard_pool import ShardPool
    from repro.simulation.transport import Channel

    def kmeans_done(result: Any) -> None:
        tracer.count("kmeans.runs")
        tracer.count("kmeans.iterations", result.iterations)

    def assignment_done(phi: np.ndarray) -> None:
        tracer.count("reindex.matchings")
        if not np.array_equal(phi, np.arange(len(phi))):
            tracer.count("reindex.permuted")

    tracker = dynamic.DynamicClusterTracker
    _patch(tracer, tracker, "update", "clustering.update")
    _patch(tracer, dynamic, "kmeans", "clustering.kmeans", after=kmeans_done)
    _patch(tracer, dynamic, "similarity_matrix_from_labels",
           "clustering.reindex")
    _patch(tracer, dynamic, "maximum_weight_assignment",
           "clustering.reindex", after=assignment_done)
    _patch(tracer, tracker, "reindex_nodes", "clustering.reindex_nodes")

    _patch(tracer, pipeline, "estimate_offsets", "forecasting.offsets")
    _patch(tracer, pipeline, "forecast_membership", "forecasting.membership")
    for method in ("fit", "update", "forecast"):
        _patch(tracer, ForecasterBank, method, f"forecasting.bank.{method}")
    _patch(tracer, pipeline.OnlinePipeline, "step", "pipeline.step")

    def ingest_name(session, values, node_ids=None, t=None) -> str:
        late = t is not None and int(t) < session.time
        return "session.late" if late else "session.ingest"

    _patch(tracer, StreamSession, "ingest", "", name_of=ingest_name)
    for method in ("grow", "compact", "restart_nodes"):
        _patch(tracer, StreamSession, method, "session.churn")

    def sent(transmit: np.ndarray) -> None:
        tracer.count("kernel.decisions", transmit.size)
        tracer.count("kernel.sent", int(np.count_nonzero(transmit)))

    kernel_builder = SLOT_KERNELS.get("adaptive")
    register_slot_kernel("adaptive", override=True)(
        lambda config: _wrap(
            tracer, "transmission.kernel", kernel_builder(config), after=sent
        )
    )
    _patch(tracer, Channel, "record_deliveries",
           "simulation.record_deliveries")
    _patch(tracer, ShardPool, "__init__", "simulation.shard_pool.start")
    _patch(tracer, ShardPool, "collect", "simulation.shard_pool.collect")

    _patch(tracer, NetworkLink, "transfer", "links.transfer")
    _patch(tracer, NetworkLink, "due", "links.due")

    _patch(tracer, StreamSession, "snapshot", "checkpoint.snapshot")
    _patch(tracer, Checkpoint, "save", "checkpoint.save")
    load = Checkpoint.__dict__["load"].__func__
    Checkpoint.load = classmethod(_wrap(tracer, "checkpoint.load", load))
    _patch(tracer, StreamSession, "restore", "checkpoint.restore")

    _patch(tracer, api, "instantaneous_rmse_batch", "metrics.rmse")
