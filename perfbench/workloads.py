"""The three benchmark workloads, driven through the public API only.

Both session workloads are closed loops with one client: the next slot
is offered only after ``ingest`` returns, because the central node
closes slots strictly in order.  Each workload's size is a fixed
function of ``--seconds`` (a nominal rate times the seconds), never of
how fast the program runs, so two commits always do identical work.

A workload is split in two phases so the caller can time set-up:
``setup()`` builds the engine or session (the set-up clock stops when
it returns), and ``run()`` generates the seeded inputs, measures, and
checks the program's outputs.
"""

from __future__ import annotations

import logging
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.registry import COLLECTION_BACKENDS
from repro.scenarios.links import LinkConfig, NetworkLink

from perfbench import inputs
from perfbench.tracing import Tracer

#: The paper's transmission budget, and the frequency the checks allow.
BUDGET = 0.3
MAX_FREQUENCY = 0.31
#: Slots before the first model fit of the session workloads.  An AR
#: bank fitted on a handful of centroids forecasts badly until its next
#: retrain, which would make forecast_rmse depend on the seed.
INITIAL_COLLECTION = 50
#: Unmeasured slots: the initial collection plus a few forecasting ones.
WARMUP = INITIAL_COLLECTION + 5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    slot_ms: List[float] = field(default_factory=list)
    measured_slots: int = 0
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    digest: str = ""
    errors: List[str] = field(default_factory=list)


class FallbackCounter(logging.Handler):
    """Counts bank-forecast fallbacks logged by ``repro.core.pipeline``.

    The pipeline logs one warning per failed cluster (three format
    arguments) or one per failed resource group (two arguments, all
    ``num_clusters`` clusters fall back).
    """

    def __init__(self, num_clusters: int) -> None:
        super().__init__(logging.WARNING)
        self.num_clusters = num_clusters
        self.events = 0
        self.clusters = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.events += 1
        args = record.args if isinstance(record.args, tuple) else ()
        self.clusters += 1 if len(args) >= 3 else self.num_clusters

    @classmethod
    def attach(cls, num_clusters: int) -> "FallbackCounter":
        counter = cls(num_clusters)
        logging.getLogger("repro.core.pipeline").addHandler(counter)
        return counter


class Scorer:
    """Eq. 4 forecast RMSE, scored by trace-column identity.

    Forecasts made at slot ``t`` for the machines in ``columns`` are
    compared with the trace at ``t + h`` for the same machines, so
    churn renumbering session nodes in between cannot skew the score.
    """

    def __init__(self, trace: np.ndarray, horizons: int) -> None:
        self.trace = trace
        self.horizons = horizons
        self.errors: Dict[int, List[float]] = {
            h: [] for h in range(1, horizons + 1)
        }
        self.pending: Dict[int, List] = {}

    def add(self, t: int, forecasts: Optional[Dict[int, np.ndarray]],
            columns: Any) -> None:
        for h, forecast in (forecasts or {}).items():
            if t + h < self.trace.shape[0]:
                self.pending.setdefault(t + h, []).append(
                    (h, forecast, columns)
                )

    def score(self, t: int) -> None:
        for h, forecast, columns in self.pending.pop(t, []):
            diff = forecast - self.trace[t, columns]
            self.errors[h].append(
                float(np.sqrt(np.sum(diff * diff) / diff.shape[0]))
            )

    def rmse(self) -> float:
        """Mean over h = 1..H of the time-averaged RMSE; NaN when some
        horizon has no scored forecast."""
        if not all(self.errors.values()):
            return float("nan")
        return float(np.mean([
            np.sqrt(np.mean(np.square(self.errors[h])))
            for h in range(1, self.horizons + 1)
        ]))


class Durability:
    """Timed checkpoint saves and resumes of one run, and their medians."""

    def __init__(self, engine: Engine, path: Path,
                 link_config: Optional[LinkConfig] = None) -> None:
        self.engine = engine
        self.path = path
        self.link_config = link_config
        self.saves: List[float] = []
        self.resumes: List[float] = []
        self.resumed: Any = None
        self.resumed_link: Optional[NetworkLink] = None

    def save(self, session: Any) -> None:
        started = time.perf_counter()
        session.save(self.path)
        self.saves.append(time.perf_counter() - started)

    def resume(self, num_nodes: int) -> None:
        link = (
            None if self.link_config is None
            else NetworkLink(num_nodes, self.link_config)
        )
        started = time.perf_counter()
        self.resumed = self.engine.resume(self.path, link=link)
        self.resumes.append(time.perf_counter() - started)
        self.resumed_link = link

    def figures(self) -> Dict[str, float]:
        """The medians, or nothing when no save and resume completed."""
        if not (self.saves and self.resumes):
            return {}
        return {
            "checkpoint_save_ms": statistics.median(self.saves) * 1e3,
            "resume_ms": statistics.median(self.resumes) * 1e3,
            "checkpoint_mb": self.path.stat().st_size / 1e6,
        }


def peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _array_bytes(state: Any) -> int:
    if isinstance(state, np.ndarray):
        return int(state.nbytes)
    if isinstance(state, dict):
        return sum(_array_bytes(v) for v in state.values())
    if isinstance(state, (list, tuple)):
        return sum(_array_bytes(v) for v in state)
    return 0


def _slot_figures(slot_s: List[float], node_slots: int) -> Dict[str, float]:
    """Slot throughput and latency figures; none when no slot succeeded."""
    if not slot_s:
        return {}
    ms = np.asarray(slot_s) * 1e3
    return {
        "node_slots_per_s": node_slots / float(np.sum(slot_s)),
        "slot_ms_p50": float(np.percentile(ms, 50)),
        "slot_ms_p90": float(np.percentile(ms, 90)),
    }


class Workload:
    """Base: a named workload with a set-up phase and a measured phase."""

    name = ""
    config: PipelineConfig

    def __init__(self, seed: int, seconds: int, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.fallbacks = FallbackCounter.attach(
            self.config.clustering.num_clusters
        )
        #: Filled by :meth:`run`; the caller still has it if run raises.
        self.out = Outcome()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _timed(self, out: Outcome, slot: int, measured: bool,
               step: Callable[[], Any], slots: int = 1):
        """Run one workload step of ``slots`` slots under the clock.

        Returns ``(result, seconds)``; ``result`` is None when the step
        raised.  A step that raised or made the pipeline fall back to a
        held centroid counts as failed.
        """
        before = self.fallbacks.events
        if self.tracer is not None:
            self.tracer.slot, self.tracer.measuring = slot, measured
        started = time.perf_counter()
        try:
            result = step()
        except Exception:
            out.errors.append(traceback.format_exc())
            result = None
        elapsed = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.slot, self.tracer.measuring = None, False
        out.attempted += slots
        if result is None:
            out.failed += slots
        else:
            # A fallback cannot be tied to its slot from outside the
            # step; each one counts one failed slot (an upper bound).
            out.failed += min(self.fallbacks.events - before, slots)
        return result, elapsed

    def _durability_probe(self, trace: np.ndarray, slots: int):
        """A session of this workload's fleet that has served the first
        ``slots`` slots of ``trace``, and a :class:`Durability` for it.

        Its state stays fixed while the workload runs, so save and resume
        samples spread over the run all measure the same work: samples
        taken back to back would all see the machine's speed of one
        moment.  Returns ``(None, None)`` in traced runs, and when the
        probe session raises (the ``durability_probe`` check fails and
        the measured slots still run).
        """
        if self.tracer is not None:
            return None, None
        try:
            session = self.engine.session(trace.shape[1], trace.shape[2])
            for t in range(slots):
                session.ingest(trace[t])
        except Exception:
            self.out.errors.append(traceback.format_exc())
            self.out.checks["durability_probe"] = False
            return None, None
        path = self.workdir / f"{self.name}.ckpt"
        return Durability(self.engine, path), session

    def _state_figures(self, session: Any) -> Dict[str, float]:
        """Resident state of a session, from one untraced snapshot."""
        self.tracer.enabled = False
        try:
            state = session.snapshot().state
        finally:
            self.tracer.enabled = True
        labels = sum(
            _array_bytes(t["labels"]) for t in state["pipeline"]["trackers"]
        )
        return {
            "checkpoint.state_bytes": float(_array_bytes(state)),
            "checkpoint.label_history_bytes": float(labels),
        }


class ServeScalar(Workload):
    """Paper-scale serving: 4,000 machines, cpu + memory, scalar
    clustering with cold k-means++ restarts, AR bank, no link."""

    name = "serve_scalar"
    nodes = 4000
    resources = 2
    slots_per_second = 36
    #: Untraced runs save and resume a session of the same fleet this
    #: many times, between slots and outside their timing.
    durability_samples = 30

    config = PipelineConfig(
        transmission=TransmissionConfig(budget=BUDGET),
        clustering=ClusteringConfig(
            num_clusters=3, history_depth=1, scalar_per_resource=True,
            kmeans_restarts=3, seed=0,
        ),
        forecasting=ForecastingConfig(
            model="ar", membership_lookback=5, max_horizon=5,
            initial_collection=INITIAL_COLLECTION, retrain_interval=288,
        ),
    )

    def setup(self) -> None:
        self.engine = Engine(self.config)
        self.session = self.engine.session(self.nodes, self.resources)

    def run(self) -> Outcome:
        measured = self.seconds * self.slots_per_second
        total = WARMUP + measured
        trace = inputs.fleet_trace(
            inputs.ALIBABA, total, self.nodes, self._rng(0)
        )
        out = self.out
        out.digest = inputs.digest(self.name, trace)
        reference = COLLECTION_BACKENDS.create(
            "adaptive", trace, self.config.transmission
        ).stored
        scorer = Scorer(trace, self.config.forecasting.max_horizon)
        durability, probe = self._durability_probe(trace, WARMUP)
        sample_every = max(measured // self.durability_samples, 1)
        session = self.session
        slot_s: List[float] = []
        identical = True
        for t in range(total):
            scorer.score(t)
            output, elapsed = self._timed(
                out, t, t >= WARMUP, lambda: session.ingest(trace[t])
            )
            if output is None:
                identical = False
                continue
            if t >= WARMUP:
                slot_s.append(elapsed)
            identical &= bool(np.array_equal(output.stored, reference[t]))
            scorer.add(t, output.node_forecasts, slice(None))
            if durability is not None and t >= WARMUP \
                    and (total - 1 - t) % sample_every == 0:
                durability.save(probe)
                durability.resume(self.nodes)

        out.slot_ms = [s * 1e3 for s in slot_s]
        out.measured_slots = len(slot_s)
        out.checks["stored_matches_batch_backend"] = identical
        out.checks["frequency_within_budget"] = (
            session.empirical_frequency <= MAX_FREQUENCY
        )
        out.e2e.update(_slot_figures(slot_s, self.nodes * len(slot_s)))
        out.e2e["forecast_rmse"] = scorer.rmse()
        if durability is not None:
            out.e2e.update(durability.figures())
        if self.tracer is not None:
            out.per_layer.update(self._state_figures(session))
        return out


class BatchJoint(Workload):
    """Batch runs over a Google-like fleet: joint 2-D clustering,
    SES bank, sharded collection over the shared-memory pool."""

    name = "batch_joint"
    nodes = 10_000
    resources = 2
    slots_per_run = 40
    slots_per_second = 11
    shards = 2
    workers = 2
    #: Untraced runs save and resume a session of the same fleet this
    #: many times after each batch run.
    durability_samples = 8

    config = PipelineConfig(
        transmission=TransmissionConfig(budget=BUDGET),
        clustering=ClusteringConfig(
            num_clusters=5, scalar_per_resource=False, kmeans_restarts=3,
            seed=0,
        ),
        forecasting=ForecastingConfig(
            model="ses", membership_lookback=5, max_horizon=5,
            initial_collection=10, retrain_interval=288,
        ),
    )

    def setup(self) -> None:
        self.engine = Engine(self.config)

    def run(self) -> Outcome:
        runs = max(2, round(
            self.seconds * self.slots_per_second / self.slots_per_run
        ))
        horizons = range(1, self.config.forecasting.max_horizon + 1)
        traces = [
            inputs.fleet_trace(
                inputs.GOOGLE, self.slots_per_run, self.nodes, self._rng(r)
            )
            for r in range(runs)
        ]
        out = self.out
        out.digest = inputs.digest(self.name, *traces)
        # A batch run keeps no state to checkpoint: the checkpoint
        # figures come from a session of the same fleet, saved and
        # resumed after every batch run.
        durability, probe = self._durability_probe(
            traces[0], self.config.forecasting.initial_collection + 1
        )
        checks = dict.fromkeys((
            "h0_rmse_matches_recomputation", "frequency_within_budget",
            "rmse_finite",
        ), True)
        walls, rmses = [], []
        for r, trace in enumerate(traces):
            result, wall = self._timed(
                out, r, True,
                lambda: self.engine.run(
                    trace, shards=self.shards, workers=self.workers
                ),
                slots=self.slots_per_run,
            )
            if result is None:
                checks = dict.fromkeys(checks, False)
                continue
            walls.append(wall)
            squared = np.sum((result.stored - trace) ** 2, axis=(1, 2))
            h0 = float(np.sqrt(np.mean(squared / self.nodes)))
            checks["h0_rmse_matches_recomputation"] &= bool(np.isclose(
                result.rmse_by_horizon[0], h0, rtol=1e-12, atol=0.0
            ))
            checks["frequency_within_budget"] &= bool(
                result.decisions.mean() <= MAX_FREQUENCY
            )
            checks["rmse_finite"] &= bool(
                np.isfinite(list(result.rmse_by_horizon.values())).all()
                and np.isfinite(result.intermediate_rmse)
            )
            rmses.append(
                np.mean([result.rmse_by_horizon[h] for h in horizons])
            )
            if durability is not None:
                for _ in range(self.durability_samples):
                    durability.save(probe)
                    durability.resume(self.nodes)

        out.checks.update(checks)
        # Per-slot figures of a batch run: its wall time over its slots.
        out.slot_ms = [w * 1e3 / self.slots_per_run for w in walls]
        out.measured_slots = self.slots_per_run * len(walls)
        if walls:
            out.e2e.update(
                node_slots_per_s=self.nodes * out.measured_slots / sum(walls),
                slot_ms_p50=float(np.percentile(out.slot_ms, 50)),
                slot_ms_p90=float(np.percentile(out.slot_ms, 90)),
                forecast_rmse=float(np.mean(rmses)),
            )
        if durability is not None:
            out.e2e.update(durability.figures())
        return out


class LonglivedChurn(Workload):
    """A long-lived Bitbrains-sized session under link loss, latency,
    shared uplinks, fleet churn and periodic checkpoints."""

    name = "longlived_churn"
    nodes = 500
    pool = 600
    slots_per_second = 400
    save_every = 200
    #: Timed saves and resumes of the last checkpoint, after the last slot.
    repeats = 25
    continuation = 3

    config = PipelineConfig(
        transmission=TransmissionConfig(budget=BUDGET),
        clustering=ClusteringConfig(num_clusters=3, seed=0, warm_start=True),
        forecasting=ForecastingConfig(
            model="ar", initial_collection=INITIAL_COLLECTION,
            retrain_interval=200, max_horizon=3,
        ),
    )

    def link_config(self) -> LinkConfig:
        return LinkConfig(
            loss=0.02, burst_enter=0.02, burst_exit=0.25, burst_loss=0.7,
            latency=1, uplinks=8, uplink_capacity=24,
            seed=int(self._rng(2).integers(2**31)),
        )

    def setup(self) -> None:
        self.engine = Engine(self.config)
        self.link = NetworkLink(self.nodes, self.link_config())
        self.session = self.engine.session(
            self.nodes, 1, reorder_window=4, link=self.link
        )

    def run(self) -> Outcome:
        total = WARMUP + self.seconds * self.slots_per_second
        total += -total % self.save_every  # the last slot saves
        trace = inputs.fleet_trace(
            inputs.BITBRAINS, total + self.continuation, self.pool,
            self._rng(0),
        )
        plan = inputs.ChurnPlan(pool=self.pool, initial=self.nodes)
        events = inputs.churn_events(plan, total, self._rng(1))
        out = self.out
        out.digest = inputs.digest(self.name, trace, sorted(
            (t, kind, columns.tolist())
            for t, slot_events in events.items()
            for kind, columns in slot_events
        ))
        scorer = Scorer(trace, self.config.forecasting.max_horizon)
        durability = Durability(
            self.engine, self.workdir / f"{self.name}.ckpt",
            self.link_config(),
        )
        session, link = self.session, self.link
        members = np.arange(self.nodes, dtype=np.int64)
        slot_s: List[float] = []
        node_slots = 0
        offered = 0
        in_flight_max = 0

        for t in range(total):
            scorer.score(t)
            # Map this slot's churn columns to session positions before
            # the clock starts: the draws are the benchmark's own work.
            churn = []
            for kind, columns in events.get(t, []):
                if kind == "join":
                    churn.append((session.grow, columns.size))
                    members = np.concatenate([members, columns])
                    continue
                positions = np.flatnonzero(np.isin(members, columns))
                if kind == "crash":
                    churn.append((session.restart_nodes, positions))
                    continue
                keep = np.setdiff1d(np.arange(members.size), positions)
                churn.append((session.compact, keep))
                members = members[keep]
            values = trace[t, members]

            def step():
                nonlocal offered
                for apply, argument in churn:
                    apply(argument)
                for origin, ids, late in link.due(t):
                    offered += int(ids.size)
                    session.ingest(late, ids, t=origin)
                output = session.ingest(values)
                if (t + 1) % self.save_every == 0:
                    session.save(durability.path)
                return output

            output, elapsed = self._timed(out, t, t >= WARMUP, step)
            if output is None:
                continue
            if t >= WARMUP:
                slot_s.append(elapsed)
                node_slots += int(members.size)
            if self.tracer is not None:
                in_flight_max = max(in_flight_max, link.in_flight)
            scorer.add(t, output.node_forecasts, members)

        out.slot_ms = [s * 1e3 for s in slot_s]
        out.measured_slots = len(slot_s)
        out.e2e.update(_slot_figures(slot_s, node_slots))
        out.e2e["forecast_rmse"] = scorer.rmse()
        late_applied = session.late_applied
        out.checks["link_conserved"] = bool(link.is_conserved)
        out.checks["late_applied_plus_dropped_equals_offered"] = (
            late_applied + session.late_dropped == offered
        )
        # The last slot saved; the saves and resumes timed here repeat
        # that checkpoint, so every sample measures the same work.  They
        # alternate, so both medians span the same window of the run.
        for _ in range(self.repeats):
            durability.save(session)
            durability.resume(session.num_nodes)
        out.checks["resume_continues_bit_identically"] = self._continue(
            trace, total, members, (session, link),
            (durability.resumed, durability.resumed_link),
        )
        out.e2e.update(durability.figures())
        if self.tracer is not None:
            counts = link.counters()
            out.per_layer.update(self._state_figures(session))
            out.per_layer.update({
                "session.late_applied_ratio": (
                    late_applied / offered if offered else 0.0
                ),
                "links.delivered_ratio": (
                    (counts["delivered_now"] + counts["delivered_late"])
                    / max(counts["sent"], 1)
                ),
                "links.in_flight_max": float(in_flight_max),
            })
        return out

    def _continue(self, trace, start, members, live, resumed) -> bool:
        """Drive the live session and the one resumed from the last
        checkpoint over the same extra slots; every stored value and
        node forecast must match bit for bit."""
        outputs = []
        for session, link in (live, resumed):
            slots = []
            for t in range(start, start + self.continuation):
                for origin, ids, late in link.due(t):
                    session.ingest(late, ids, t=origin)
                slots.append(session.ingest(trace[t, members]))
            outputs.append(slots)
        for a, b in zip(*outputs):
            if not np.array_equal(a.stored, b.stored):
                return False
            fa, fb = a.node_forecasts or {}, b.node_forecasts or {}
            if fa.keys() != fb.keys() or not all(
                np.array_equal(fa[h], fb[h]) for h in fa
            ):
                return False
        return resumed[1].is_conserved


WORKLOADS = {w.name: w for w in (ServeScalar, BatchJoint, LonglivedChurn)}
