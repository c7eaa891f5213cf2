"""Unified public API: one engine, pluggable stages.

:class:`Engine` is the single entry point to the paper's system.  It
composes the registry-backed stages (collection backend, transmission
policy, dynamic clustering, and the per-group forecaster banks that
batch every cluster's model — see :mod:`repro.forecasting.bank`) and
serves both execution modes:

* **batch** — :meth:`Engine.run` drives a recorded trace through
  collection, clustering and forecasting and returns a
  :class:`RunResult` with the paper's RMSE metrics, transport stats and
  per-stage wall-clock timings.  ``run(trace, shards=K, workers=W)``
  additionally partitions the fleet into contiguous node shards for
  the collection stage, runs them on ``W`` threads of a
  :class:`~repro.simulation.shard_pool.ShardPool` (the calling thread
  alone by default) and merges them into one columnar
  :class:`~repro.simulation.fleet.FleetState` — bit-identical to the
  single-shard run;
* **streaming** — :meth:`Engine.session` opens a long-lived, stateful
  :class:`~repro.session.StreamSession` with partial ingestion, a
  bounded late-arrival reorder window, on-demand forecasts and
  checkpoint/resume (:meth:`StreamSession.snapshot
  <repro.session.StreamSession.snapshot>` /
  :meth:`Engine.resume`).  Each slot's transmissions are one batched
  slot-kernel call over the fleet columns.

Engines are constructible from plain data — a :class:`~repro.core.
config.PipelineConfig`, its :meth:`~repro.core.config.PipelineConfig.
to_dict` mapping, or a path to a JSON file of that mapping — via
:meth:`Engine.from_config`, so experiment drivers, the CLI and config
files all share one wiring path::

    from repro.api import Engine

    engine = Engine.from_config("config.json")
    result = engine.run(trace)                  # batch
    print(result.rmse_by_horizon, result.timings)

    session = engine.session(50, 1)             # streaming
    output = session.ingest(x_t)                # one (full) slot
    session.ingest(x_late, node_ids=[3, 9])    # a partial slot
    session.save("state.ckpt")                  # durable checkpoint
    session = Engine.from_config(config).resume("state.ckpt")
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.checkpoint import Checkpoint, as_checkpoint, config_mismatch
from repro.core.config import PipelineConfig
from repro.core.metrics import instantaneous_rmse_batch
from repro.core.pipeline import ForecasterFactory, OnlinePipeline
from repro.core.types import validate_trace
from repro.exceptions import CheckpointError, ConfigurationError
from repro.forecasting.bank import ObjectBank
from repro.registry import SLOT_KERNELS
from repro.session import StreamSession
from repro.simulation.fleet import FleetState, shard_slices
from repro.simulation.shard_pool import ShardPool
from repro.simulation.transport import TransportStats


@dataclass
class RunResult:
    """Batch-run outcome: the paper's metrics plus provenance.

    Attributes:
        stored: Central-store trajectory ``(T, N, d)``.
        decisions: Transmission decisions ``(T, N)``.
        rmse_by_horizon: ``{h: RMSE(T, h)}`` time-averaged per Eq. 4,
            evaluated over all slots where both forecast and truth exist
            (``h = 0`` is the pure collection error ``z`` vs ``x``).
        intermediate_rmse: Time-averaged centroid-vs-data RMSE per
            resource group (Sec. VI-C), averaged across groups.
        forecast_start: First slot index with forecasts available.
        transport: Message/byte counters over the fleet's counter
            column, the per-node sums of the decision matrix.
        timings: Wall-clock seconds per stage: ``collection``,
            ``clustering``, ``training``, ``forecasting``, ``metrics``
            and ``total``.
        config: The resolved configuration the run used.
        collection: The policy whose collection backend the run used.
        bank: How the model layer executed: the model's vectorized bank
            name, or ``"object"`` for the per-cluster adapter.
        fleet: Columnar :class:`~repro.simulation.fleet.FleetState`
            snapshot after the last slot — final stored values, clocks,
            last-transmit slots and per-node message counters.
        shards: How many node shards the collection stage ran as.
    """

    stored: np.ndarray
    decisions: np.ndarray
    rmse_by_horizon: Dict[int, float]
    intermediate_rmse: float
    forecast_start: int
    transport: Optional[TransportStats]
    timings: Dict[str, float]
    config: PipelineConfig
    collection: str
    bank: str = "object"
    fleet: Optional[FleetState] = None
    shards: int = 1

    def summary(self) -> str:
        """Human-readable run summary (CLI/report friendly)."""
        lines = [
            f"collection={self.collection} "
            f"model={self.config.forecasting.model} "
            f"bank={self.bank} "
            f"K={self.config.clustering.num_clusters}",
            f"transmission frequency: {self.decisions.mean():.3f} "
            f"(budget {self.config.transmission.budget})",
            f"intermediate RMSE: {self.intermediate_rmse:.4f}",
        ]
        for horizon, rmse in sorted(self.rmse_by_horizon.items()):
            lines.append(f"  RMSE(h={horizon}) = {rmse:.4f}")
        stage_part = " ".join(
            f"{stage}={seconds:.2f}s"
            for stage, seconds in self.timings.items()
        )
        lines.append(f"timings: {stage_part}")
        return "\n".join(lines)


class Engine:
    """Unified batch + streaming engine over registry-backed stages.

    Args:
        config: Full pipeline configuration.
        policy: Transmission policy of both modes — any name in
            :data:`repro.registry.SLOT_KERNELS` (a custom policy is a
            :func:`~repro.registry.register_slot_kernel` registration);
            :meth:`run` collects through its
            :data:`repro.registry.COLLECTION_BACKENDS` entry.
        forecaster_factory: Override the forecasting model construction;
            receives ``(cluster_id, group_index)`` and runs through the
            :class:`~repro.forecasting.bank.ObjectBank` adapter (see
            :func:`~repro.forecasting.bank.resolve_bank`).
    """

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        *,
        policy: str = "adaptive",
        forecaster_factory: Optional[ForecasterFactory] = None,
    ) -> None:
        if not isinstance(config, PipelineConfig):
            raise ConfigurationError(
                "config must be a PipelineConfig (use Engine.from_config "
                f"for mappings and JSON files), got {type(config).__name__}"
            )
        self.config = config
        # Fail fast, with close-match suggestions, on unknown names.
        SLOT_KERNELS.get(policy)
        self.policy = policy
        self._forecaster_factory = forecaster_factory

    @classmethod
    def from_config(
        cls,
        config: Union[PipelineConfig, Mapping[str, Any], str, Path],
        **kwargs: Any,
    ) -> "Engine":
        """Build an engine from a config in any of its three forms.

        Args:
            config: A :class:`PipelineConfig`, a mapping in
                :meth:`PipelineConfig.to_dict` form, or a path to a JSON
                file holding that mapping.
            **kwargs: Forwarded to :class:`Engine` (``policy``,
                ``forecaster_factory``).
        """
        if isinstance(config, (str, Path)):
            path = config
            with open(path, "r", encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, Mapping):
                raise ConfigurationError(
                    f"config file {str(path)!r} must hold a JSON object "
                    f"in PipelineConfig.to_dict form, got "
                    f"{type(config).__name__}"
                )
        if isinstance(config, Mapping):
            config = PipelineConfig.from_dict(config)
        return cls(config, **kwargs)

    # ------------------------------------------------------------------
    # Streaming mode
    # ------------------------------------------------------------------

    def session(
        self,
        num_nodes: int,
        num_resources: int,
        *,
        reorder_window: int = 0,
        link: Optional[Any] = None,
    ) -> StreamSession:
        """Open a new long-lived :class:`~repro.session.StreamSession`.

        Every call creates an independent deployment (own fleet state,
        transport counters, clustering history and forecaster banks)
        wired with this engine's config, policy and forecaster factory.

        Args:
            num_nodes: Fleet size ``N``.
            num_resources: Resource dimensionality ``d``.
            reorder_window: Late-arrival tolerance in slots (see
                :meth:`StreamSession.ingest
                <repro.session.StreamSession.ingest>`).
            link: Optional :class:`~repro.scenarios.links.LinkModel`
                interposed between transmissions and the channel.
        """
        return StreamSession(
            self.config,
            num_nodes,
            num_resources,
            policy=self.policy,
            forecaster_factory=self._forecaster_factory,
            reorder_window=reorder_window,
            link=link,
        )

    def resume(
        self,
        source: Union[Checkpoint, str, Path],
        *,
        link: Optional[Any] = None,
        mmap: bool = True,
    ) -> StreamSession:
        """Reconstruct a session from a checkpoint, bit-identically.

        The resumed session continues exactly as the snapshotted one
        would have — forecasts, cluster assignments and transport
        counters match an uninterrupted run bit for bit.

        Args:
            source: A :class:`~repro.checkpoint.Checkpoint` or a path
                to one saved with ``save``.
            link: A :class:`~repro.scenarios.links.LinkModel` shell of
                the checkpoint's configuration; required when the
                checkpoint was taken from a linked session (the link's
                queues and generator resume from the checkpoint), sized
                to the checkpoint's fleet.
            mmap: When ``source`` is a path, map the array members
                copy-on-write and *adopt* them as the session's live
                columns instead of loading and copying — resuming never
                holds two copies of the state (the default; see
                :meth:`Checkpoint.load <repro.checkpoint.Checkpoint.
                load>`).  Irrelevant for an already-loaded checkpoint.

        Raises:
            CheckpointError: On a damaged archive or a format-version
                mismatch (raised by :meth:`Checkpoint.load
                <repro.checkpoint.Checkpoint.load>`), configuration,
                dtype or policy mismatch, or a missing custom
                forecaster factory.
        """
        checkpoint = as_checkpoint(source, mmap=mmap)
        # Normalize the stored config through PipelineConfig so older
        # checkpoints (written before newer top-level knobs like
        # ``dtype`` existed) compare against their resolved defaults
        # instead of spurious "<missing>" diffs.
        try:
            resolved = PipelineConfig.from_dict(checkpoint.config)
        except ConfigurationError as exc:
            raise CheckpointError(
                f"checkpoint configuration does not resolve: {exc}"
            ) from exc
        # The configs are frozen dataclasses: comparing them is cheap,
        # and the dicts that name a mismatch are built only for one.
        if resolved != self.config:
            checkpoint_config = resolved.to_dict()
            engine_config = self.config.to_dict()
            if checkpoint_config["dtype"] != engine_config["dtype"]:
                raise CheckpointError(
                    f"checkpoint was written with "
                    f"dtype={checkpoint_config['dtype']!r}, engine runs "
                    f"dtype={engine_config['dtype']!r}; restoring across "
                    "dtypes would silently cast the fleet state — rebuild "
                    "the engine with the checkpoint's dtype"
                )
            diffs = config_mismatch(checkpoint_config, engine_config)
            if diffs:
                detail = "; ".join(
                    f"{path}: checkpoint={a!r} engine={b!r}"
                    for path, a, b in diffs[:5]
                )
                raise CheckpointError(
                    f"checkpoint configuration disagrees with the engine's "
                    f"({detail}); build the engine from the checkpoint's "
                    "config (Engine.from_config(checkpoint.config)) or "
                    "match the configs"
                )
        meta = checkpoint.session
        if meta["custom_forecaster_factory"] and (
            self._forecaster_factory is None
        ):
            raise CheckpointError(
                "checkpoint was taken with a custom forecaster_factory; "
                "resume with an engine carrying that factory"
            )
        if meta["policy"] != self.policy:
            raise CheckpointError(
                f"checkpoint used transmission policy {meta['policy']!r}, "
                f"engine is configured for {self.policy!r}"
            )
        session = self.session(
            int(meta["num_nodes"]),
            int(meta["num_resources"]),
            reorder_window=int(meta["reorder_window"]),
            link=link,
        )
        session.restore(checkpoint)
        return session

    # ------------------------------------------------------------------
    # Batch mode
    # ------------------------------------------------------------------

    def _collect_sharded(
        self,
        data: np.ndarray,
        shards: int,
        workers: Optional[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the collection stage over ``shards`` contiguous node
        ranges (one shard is one range) and merge the global
        ``(stored, decisions)``.

        Every registered backend's recurrence is independent per node
        column (fleet-global state like the uniform stagger phases is
        handled via the shard-aware kwargs), so the merged arrays are
        bit-identical whatever the shard count.
        """
        ranges = shard_slices(data.shape[1], shards)
        # workers=None: the calling thread runs every shard itself.
        with ShardPool(min(workers or 1, shards)) as shard_pool:
            return shard_pool.collect(
                self.policy, data, self.config.transmission, ranges
            )

    def run(
        self,
        trace: np.ndarray,
        *,
        horizons: Optional[Sequence[int]] = None,
        shards: int = 1,
        workers: Optional[int] = None,
    ) -> RunResult:
        """Run collection + clustering + forecasting over a full trace.

        Batch mode is stateless with respect to the engine: each call
        builds a fresh pipeline, so repeated runs are independent and
        reproducible (streaming state, if any, is untouched).

        Args:
            trace: True measurements, shape ``(T, N)`` or ``(T, N, d)``.
            horizons: Horizons to evaluate; default ``0..max_horizon``
                (``h = 0`` is the pure collection error).
            shards: Partition the fleet into this many contiguous node
                shards for the collection stage.  Results are
                bit-identical to ``shards=1`` for every registered
                backend (including :attr:`RunResult.transport`, merged
                by the shard reduction).
            workers: Run the shards on this many threads of a
                :class:`~repro.simulation.shard_pool.ShardPool`, the
                calling thread included (capped at ``shards``).  The
                result is bit-identical whatever the value (default
                ``None``: the calling thread runs every shard, one after
                another).  Requires ``shards > 1``.

        Returns:
            The :class:`RunResult` with RMSE per horizon, transport
            stats, per-stage timings and the final fleet snapshot.
        """
        run_started = time.perf_counter()
        data = validate_trace(trace, dtype=self.config.np_dtype)
        num_steps, num_nodes, num_resources = data.shape
        config = self.config
        try:
            shards = int(operator.index(shards))
        except TypeError:
            raise ConfigurationError(
                f"shards must be an integer, got {shards!r}"
            ) from None
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards > num_nodes:
            raise ConfigurationError(
                f"cannot split {num_nodes} nodes into {shards} shards"
            )
        if workers is not None:
            try:
                workers = int(operator.index(workers))
            except TypeError:
                raise ConfigurationError(
                    f"workers must be an integer, got {workers!r}"
                ) from None
            if workers < 1:
                raise ConfigurationError(
                    f"workers must be >= 1, got {workers}"
                )
        if workers is not None and shards == 1:
            raise ConfigurationError(
                "workers only applies to sharded runs; pass shards > 1"
            )
        started = time.perf_counter()
        stored, decisions = self._collect_sharded(data, shards, workers)
        fleet = FleetState.from_run(stored, decisions)
        collection_seconds = time.perf_counter() - started

        pipeline = OnlinePipeline(
            num_nodes,
            num_resources,
            config,
            forecaster_factory=self._forecaster_factory,
        )
        max_h = config.forecasting.max_horizon
        eval_horizons = list(horizons) if horizons is not None else list(
            range(0, max_h + 1)
        )
        for h in eval_horizons:
            if h < 0 or h > max_h:
                raise ConfigurationError(
                    f"horizon {h} outside [0, {max_h}]"
                )

        sq_sums: Dict[int, float] = {h: 0.0 for h in eval_horizons}
        sq_counts: Dict[int, int] = {h: 0 for h in eval_horizons}
        forecast_horizons = sorted(h for h in eval_horizons if h != 0)
        # Each slot is scored as it closes (Eq. 3), so the run holds
        # per-slot errors, never a (T, N, d) estimate series.  Every
        # call scores a one-slot stack of views, and the batch scorer
        # reduces each slot of a stack on its own: the values are
        # those of scoring the whole trajectory at once.
        h0_errors = np.empty(num_steps) if 0 in sq_sums else None
        # A group is a run of adjacent resources, so a slice of columns.
        columns = [slice(group[0], group[-1] + 1) for group in pipeline.groups]
        group_errors = np.empty((len(columns), num_steps))
        forecast_start = -1
        metrics_seconds = 0.0

        for t in range(num_steps):
            output = pipeline.step(stored[t])
            started = time.perf_counter()
            if h0_errors is not None:
                h0_errors[t] = instantaneous_rmse_batch(
                    stored[t][np.newaxis], data[t][np.newaxis]
                )[0]
            for g, assignment in enumerate(output.assignments):
                # The estimate is the float64 centroid in the stored
                # dtype: a float32 run scores it rounded.
                centers = assignment.centroids[assignment.labels].astype(
                    stored.dtype, copy=False
                )
                group_errors[g, t] = instantaneous_rmse_batch(
                    centers[np.newaxis], stored[t][:, columns[g]][np.newaxis]
                )[0]

            if output.node_forecasts is not None:
                if forecast_start < 0:
                    forecast_start = t
                for h in forecast_horizons:
                    if t + h >= num_steps:
                        break
                    err = float(instantaneous_rmse_batch(
                        output.node_forecasts[h][np.newaxis],
                        data[t + h][np.newaxis],
                    )[0])
                    sq_sums[h] += err**2
                    sq_counts[h] += 1
            metrics_seconds += time.perf_counter() - started

        started = time.perf_counter()
        if h0_errors is not None:
            sq_sums[0] = float(np.sum(h0_errors**2))
            sq_counts[0] = num_steps
        intermediate_sq = (group_errors**2).mean(axis=0)

        rmse_by_horizon = {}
        for h in eval_horizons:
            if sq_counts[h] > 0:
                rmse_by_horizon[h] = float(np.sqrt(sq_sums[h] / sq_counts[h]))
        metrics_seconds += time.perf_counter() - started

        timings = {"collection": collection_seconds}
        timings.update(pipeline.stage_seconds)
        timings["metrics"] = metrics_seconds
        timings["total"] = time.perf_counter() - run_started
        return RunResult(
            stored=stored,
            decisions=decisions,
            rmse_by_horizon=rmse_by_horizon,
            intermediate_rmse=float(np.sqrt(np.mean(intermediate_sq))),
            forecast_start=forecast_start,
            transport=TransportStats.from_node_counts(
                fleet.message_counts, num_resources
            ),
            timings=timings,
            config=config,
            collection=self.policy,
            bank=(
                "object"
                if isinstance(pipeline.bank(0), ObjectBank)
                else config.forecasting.model
            ),
            fleet=fleet,
            shards=shards,
        )


__all__ = ["Engine", "RunResult", "StreamSession"]
