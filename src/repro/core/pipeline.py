"""End-to-end online pipeline (Fig. 2 of the paper).

Per time slot the pipeline:

1. lets every local node run its transmission policy, updating the
   central store ``z_t`` (adaptive Lyapunov policy by default);
2. dynamically clusters the stored measurements — by default each
   resource type independently on scalar values (Table I's winner) —
   re-indexing clusters against history so centroid time series are
   coherent;
3. once the initial collection phase has passed, trains/updates the
   per-group :class:`~repro.forecasting.bank.ForecasterBank` — every
   cluster's model of a resource group in one batched call — forecasts
   centroids ``ĉ_{j,t+h}``, forecasts memberships by majority vote over
   ``[t − M', t]``, computes α-clipped per-node offsets (Eq. 12), and
   emits per-node forecasts ``x̂_{i,t+h} = ĉ_{j,t+h} + ŝ_{i,t+h}``.

The pipeline is strictly online: at slot ``t`` it has seen nothing beyond
``t``.  :meth:`repro.api.Engine.run` drives it over a recorded trace and
collects the paper's RMSE metrics; :class:`repro.session.StreamSession`
drives it one live slot at a time.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.simulation.transport import TransportStats

from repro.core.config import PipelineConfig
from repro.core.ring import SlotRing
from repro.core.types import ClusterAssignment
from repro.clustering.dynamic import DynamicClusterTracker
from repro.exceptions import ConfigurationError, DataError, ReproError
from repro.forecasting.bank import (
    BankForecastError,
    ForecasterBank,
    ForecasterFactory,
    default_forecaster_factory as default_forecaster_factory,
    resolve_bank,
)
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import estimate_offsets

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ForecastFactors:
    """One slot's per-node forecasts in the factored form of Eq. 12.

    ``x̂_{i,t+h} = ĉ_{m_i,t+h} + ŝ_i``: a node's forecast is its
    forecasted cluster's forecasted centroid plus its offset.  This is
    what a checkpoint stores instead of the ``H`` materialized
    ``(N, d)`` forecasts.

    Attributes:
        horizons: The horizons ``h``, one per row of ``centroids``.
        centroids: ``(H, K, d)`` float64 per-cluster forecasts, exactly
            as the bank (or the hold-last-centroid fallback) produced
            them.
        memberships: ``(groups, N)`` forecasted cluster per resource
            group and node, in the trackers' label dtype.
        offsets: ``(N, d)`` float64 per-node offsets.
    """

    horizons: Tuple[int, ...]
    centroids: np.ndarray
    memberships: np.ndarray
    offsets: np.ndarray

    def compose(
        self, groups: Sequence[Sequence[int]], dtype: np.dtype
    ) -> Dict[int, np.ndarray]:
        """The per-node forecasts ``{h: (N, d)}`` in ``dtype``.

        ``groups`` are the pipeline's resource groups (runs of adjacent
        resources), one per row of :attr:`memberships`.  Both factors
        are float64, so each sum is taken in float64 and cast to
        ``dtype`` once: the step and a resumed session compose the same
        bits.
        """
        num_nodes, dim = self.offsets.shape
        forecasts = {}
        for i, h in enumerate(self.horizons):
            forecast = np.empty((num_nodes, dim), dtype=dtype)
            for g, group in enumerate(groups):
                columns = slice(group[0], group[-1] + 1)
                forecast[:, columns] = (
                    self.centroids[i, :, columns][self.memberships[g]]
                    + self.offsets[:, columns]
                )
            forecasts[h] = forecast
        return forecasts


@dataclass
class StepOutput:
    """What the pipeline emits after processing one slot.

    Aligned with :class:`repro.api.RunResult`: when the slot ran through
    a streaming session (:meth:`repro.session.StreamSession.ingest`),
    it additionally carries the slot's
    transport delta and per-stage wall-clock timings, so streaming and
    batch results are inspectable the same way.

    Attributes:
        time: The slot index ``t``.
        stored: The central store ``z_t``, shape ``(N, d)``.
        assignments: One :class:`ClusterAssignment` per resource group
            (d entries under scalar clustering, 1 under joint clustering).
        node_forecasts: ``{h: (N, d) array}`` of per-node forecasts
            ``x̂_{i,t+h}``, or None before forecasting starts.
        centroid_forecasts: ``{h: (K, d) array}`` of forecasted centroids.
        memberships: Forecasted cluster per node and resource group,
            shape ``(groups, N)``, int64; None before forecasting
            starts.
        forecast_factors: The :class:`ForecastFactors`
            ``node_forecasts`` were composed from; None before
            forecasting starts.
        transport: *This slot's* message/byte counters (not cumulative)
            — a :class:`~repro.simulation.transport.TransportStats`
            delta.  None when the pipeline ran outside a session.
        timings: Wall-clock seconds per stage for this slot
            (``collection``, ``clustering``, ``training``,
            ``forecasting``, ``total``), mirroring
            :attr:`repro.api.RunResult.timings`.  None outside a
            session.
        late_applied: The session's *cumulative* applied-late-arrival
            counter at the close of this slot (see
            :meth:`repro.session.StreamSession.ingest`).  None outside
            a session.
        late_dropped: Cumulative dropped-late-arrival counter at the
            close of this slot.  None outside a session.
    """

    time: int
    stored: np.ndarray
    assignments: List[ClusterAssignment]
    node_forecasts: Optional[Dict[int, np.ndarray]] = None
    centroid_forecasts: Optional[Dict[int, np.ndarray]] = None
    memberships: Optional[np.ndarray] = None
    forecast_factors: Optional[ForecastFactors] = None
    transport: Optional["TransportStats"] = None
    timings: Optional[Dict[str, float]] = None
    late_applied: Optional[int] = None
    late_dropped: Optional[int] = None


class OnlinePipeline:
    """Streaming pipeline over the central store ``z_t``.

    The pipeline consumes *stored* measurements (the transmission stage
    runs separately — see :meth:`repro.api.Engine.run` — so that any
    collection policy can feed it).

    Args:
        num_nodes: Number of local nodes N.
        num_resources: Resource dimensionality d.
        config: Full pipeline configuration.
        forecaster_factory: Override the model construction; receives
            ``(cluster_id, group_index)`` — see :data:`ForecasterFactory`.
    """

    def __init__(
        self,
        num_nodes: int,
        num_resources: int,
        config: PipelineConfig = PipelineConfig(),
        *,
        forecaster_factory: Optional[ForecasterFactory] = None,
    ) -> None:
        if num_nodes < 1 or num_resources < 1:
            raise ConfigurationError("num_nodes and num_resources must be >= 1")
        self.num_nodes = num_nodes
        self.num_resources = num_resources
        self.config = config
        self._dtype = config.np_dtype
        clustering = config.clustering
        if clustering.scalar_per_resource:
            self._groups: List[List[int]] = [[r] for r in range(num_resources)]
        else:
            self._groups = [list(range(num_resources))]
        self._trackers = [
            DynamicClusterTracker(
                clustering.num_clusters,
                history_depth=clustering.history_depth,
                similarity=clustering.similarity,
                restarts=clustering.kmeans_restarts,
                warm_start=clustering.warm_start,
                seed=None if clustering.seed is None else clustering.seed + g,
            )
            for g in range(len(self._groups))
        ]
        # One bank per resource group: the whole model layer of a group
        # — every (cluster, dim) series — fits, updates and forecasts
        # as a single batched call (ObjectBank adapts per-cluster
        # forecasters when no vectorized bank exists for the model).
        self._banks: List[ForecasterBank] = [
            resolve_bank(
                config.forecasting,
                num_clusters=clustering.num_clusters,
                dim=len(group),
                group=g,
                factory=forecaster_factory,
                dtype=self._dtype,
            )
            for g, group in enumerate(self._groups)
        ]
        # Only the last M'+1 slots feed the membership forecast and the
        # offset estimation, so these rolling windows are bounded at
        # O(window · N · d) — preallocated rings, not deques of per-slot
        # arrays, so steady-state appends allocate nothing.  The
        # trackers keep their own M-slot label windows; the only state
        # that grows with the stream is their centroid series
        # (K · d floats per slot), which model training reads whole.
        window = config.forecasting.membership_lookback + 1
        self._stored_history = SlotRing(window)
        # Labels lie in [0, K): the rings keep them in the trackers'
        # narrowest integer type, as the trackers' own windows do.
        self._label_history: List[SlotRing] = [
            SlotRing(window, dtype=tracker.label_dtype)
            for tracker in self._trackers
        ]
        # Per group, each window slot's Eq. 12 terms for every target
        # cluster (see estimate_offsets' memo), aligned with the stored
        # ring; None until the next forecast computes them.  Derived
        # state: never checkpointed, cleared whenever the ring's node
        # axis or contents are replaced.
        self._offset_memo: List[List[Optional[np.ndarray]]] = [
            [] for _ in self._groups
        ]
        self._time = 0
        self._last_train: Optional[int] = None
        #: Cumulative wall-clock seconds per stage across the steps this
        #: object ran (not checkpointed).
        self.stage_seconds: Dict[str, float] = {
            "clustering": 0.0, "training": 0.0, "forecasting": 0.0,
        }

    @property
    def time(self) -> int:
        return self._time

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Resource groups clustered together, as resource-index tuples.

        ``((0,), (1,), …)`` under scalar (per-resource) clustering, a
        single ``(0, 1, …, d-1)`` group under joint clustering.
        """
        return tuple(tuple(group) for group in self._groups)

    def tracker(self, group: int) -> DynamicClusterTracker:
        """Access the dynamic tracker of one resource group."""
        return self._trackers[group]

    def bank(self, group: int) -> ForecasterBank:
        """Access the forecaster bank of one resource group."""
        return self._banks[group]

    def _should_train(self) -> bool:
        forecasting = self.config.forecasting
        if self._time + 1 < forecasting.initial_collection:
            return False
        if self._last_train is None:
            return True
        return self._time - self._last_train >= forecasting.retrain_interval

    def _forecasting_active(self) -> bool:
        return self._last_train is not None

    def step(self, stored: np.ndarray) -> StepOutput:
        """Process one slot of stored measurements ``z_t``.

        Args:
            stored: Shape ``(N, d)`` (or ``(N,)`` when d = 1).

        Returns:
            The :class:`StepOutput` with clustering results and, once the
            initial collection phase has passed, multi-horizon forecasts.
        """
        z = np.asarray(stored, dtype=self._dtype)
        if z.ndim == 1:
            z = z[:, np.newaxis]
        if z.shape != (self.num_nodes, self.num_resources):
            raise DataError(
                f"stored must be ({self.num_nodes}, {self.num_resources}), "
                f"got {z.shape}"
            )
        self._stored_history.append(z)  # the ring copies into its buffer
        for memo in self._offset_memo:
            memo.append(None)
            if len(memo) > self._stored_history.maxlen:
                del memo[0]

        started = time.perf_counter()
        assignments = []
        for g, group in enumerate(self._groups):
            values = z[:, group]
            assignment = self._trackers[g].update(values)
            assignments.append(assignment)
            self._label_history[g].append(assignment.labels)
        self.stage_seconds["clustering"] += time.perf_counter() - started

        started = time.perf_counter()
        if self._should_train():
            self._train_models()
        elif self._forecasting_active():
            self._update_models(assignments)
        self.stage_seconds["training"] += time.perf_counter() - started

        output = StepOutput(
            time=self._time, stored=z.copy(), assignments=assignments
        )
        if self._forecasting_active():
            started = time.perf_counter()
            self._forecast_into(output, assignments)
            self.stage_seconds["forecasting"] += time.perf_counter() - started
        self._time += 1
        return output

    # ------------------------------------------------------------------
    # Fleet churn (node-axis remapping)
    # ------------------------------------------------------------------

    def reindex_nodes(self, index_map: np.ndarray) -> None:
        """Adopt a new fleet geometry (grow/compact) mid-stream.

        The pipeline's node-aligned state is bounded: the stored-value
        and label history rings plus each tracker's remembered
        labellings.  All are remapped as ``new[i] = old[index_map[i]]``
        (``-1`` marks a joined node: zero stored history, label 0 until
        its own labels fill the window).  Cluster-level state — the
        forecaster banks and centroid histories — is node-free and
        untouched, so forecasts continue seamlessly across churn.

        Args:
            index_map: int array, one entry per *new* node: the old
                node index it descends from, or ``-1`` for a join.
        """
        index_map = np.asarray(index_map, dtype=np.int64).ravel()
        if index_map.size < 1:
            raise ConfigurationError("index_map must cover >= 1 node")
        self.num_nodes = int(index_map.size)
        self._stored_history.reindex(index_map, fill=0.0)
        for ring in self._label_history:
            ring.reindex(index_map, fill=0)
        for tracker in self._trackers:
            tracker.reindex_nodes(index_map, fill_label=0)
        self._offset_memo = self._empty_offset_memo()

    def _empty_offset_memo(self) -> List[List[Optional[np.ndarray]]]:
        """A memo with every window slot still to compute."""
        return [[None] * len(self._stored_history) for _ in self._groups]

    # ------------------------------------------------------------------
    # Checkpoint state contract
    # ------------------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Serializable pipeline state (checkpoint contract).

        Composes the state contracts of every owned component — the
        bounded history rings, one
        :class:`~repro.clustering.dynamic.DynamicClusterTracker` and one
        :class:`~repro.forecasting.bank.ForecasterBank` per resource
        group — plus the pipeline's own clock and retrain schedule.
        Wall-clock :attr:`stage_seconds` are not state: a resumed
        pipeline counts its own from zero.
        """
        return {
            "time": self._time,
            "num_nodes": self.num_nodes,
            "last_train": self._last_train,
            "stored_history": self._stored_history.get_state(),
            "label_history": [
                ring.get_state() for ring in self._label_history
            ],
            "trackers": [t.get_state() for t in self._trackers],
            "banks": [b.get_state() for b in self._banks],
        }

    def set_state(
        self, state: Dict[str, object], *, adopt: bool = False
    ) -> None:
        """Restore a state captured by :meth:`get_state`.

        The pipeline must have been constructed with the same
        configuration and dimensions (group structure and bank types are
        set at construction; the state carries only their contents).
        The ``stage_seconds`` of format-1 checkpoints are ignored.

        Args:
            adopt: Adopt the node-aligned history windows (the state's
                dominant arrays) as ring buffers without copying — the
                zero-copy checkpoint-resume path.  Cluster-level state
                (trackers, banks) is small and always copied.
        """
        groups = len(self._groups)
        for key in ("label_history", "trackers", "banks"):
            if len(state[key]) != groups:
                raise DataError(
                    f"state holds {len(state[key])} {key} entries, "
                    f"pipeline has {groups} resource groups"
                )
        self._time = int(state["time"])
        # Older checkpoints predate fleet churn and carry no geometry;
        # they were always resumed at the constructed size.
        self.num_nodes = int(state.get("num_nodes", self.num_nodes))
        last_train = state["last_train"]
        self._last_train = None if last_train is None else int(last_train)
        self._stored_history.set_state(state["stored_history"], adopt=adopt)
        for ring, ring_state in zip(
            self._label_history, state["label_history"]
        ):
            ring.set_state(ring_state, adopt=adopt)
        for tracker, tracker_state in zip(self._trackers, state["trackers"]):
            tracker.set_state(tracker_state)
        for bank, bank_state in zip(self._banks, state["banks"]):
            bank.set_state(bank_state)
        self._offset_memo = self._empty_offset_memo()

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------

    def _train_models(self) -> None:
        # One batched fit per group: the bank consumes the whole
        # (t, K, d) centroid tensor at once.
        for g in range(self.num_groups):
            self._banks[g].fit(self._trackers[g].centroid_tensor())
        self._last_train = self._time

    def _update_models(self, assignments: Sequence[ClusterAssignment]) -> None:
        for g, assignment in enumerate(assignments):
            self._banks[g].update(assignment.centroids)

    def _forecast_into(
        self, output: StepOutput, assignments: Sequence[ClusterAssignment]
    ) -> None:
        forecasting = self.config.forecasting
        num_clusters = self.config.clustering.num_clusters
        horizon = forecasting.max_horizon
        lookback = forecasting.membership_lookback

        # The factors of Eq. 12, filled group by group; float64 holds
        # each group's per-cluster forecasts whatever dtype they come in.
        centroids = np.empty((horizon, num_clusters, self.num_resources))
        memberships = np.empty(
            (self.num_groups, self.num_nodes),
            dtype=self._label_history[0].dtype,
        )
        offsets = np.empty((self.num_nodes, self.num_resources))
        # The ring's maxlen is exactly lookback + 1 (set in __init__), so
        # the whole window is the whole ring.
        window = len(self._stored_history)

        for g, group in enumerate(self._groups):
            # A group is a run of adjacent resources, so its columns
            # are views of the ring's rows: nothing is copied, and the
            # memo reads only the slots it has not computed yet.
            columns = slice(group[0], group[-1] + 1)
            # Forecast all clusters of this group in one bank call.
            # Failed clusters fall back to holding their last centroid:
            # per cluster when the bank reports partial failure, for
            # the whole group when the bank fails outright.
            try:
                per_cluster = self._banks[g].forecast(horizon)
            except BankForecastError as exc:
                per_cluster = exc.forecasts
                for j in sorted(exc.failures):
                    logger.warning(
                        "forecast failed for group %d cluster %d: %s; "
                        "holding last centroid", g, j, exc.failures[j],
                    )
                    per_cluster[:, j, :] = assignments[g].centroids[j]
            except ReproError as exc:
                logger.warning(
                    "forecast failed for group %d: %s; "
                    "holding last centroids", g, exc,
                )
                per_cluster = assignments[g].centroids
            centroids[:, :, columns] = per_cluster

            memberships[g] = forecast_membership(
                self._label_history[g].ordered(), lookback
            )
            offsets[:, columns] = estimate_offsets(
                [stored[:, columns] for stored in self._stored_history],
                self._trackers[g].recent_centroids(window),
                memberships[g],
                lookback,
                memo=self._offset_memo[g],
            )

        factors = ForecastFactors(
            tuple(range(1, horizon + 1)), centroids, memberships, offsets
        )
        output.node_forecasts = factors.compose(self._groups, self._dtype)
        output.centroid_forecasts = {
            h: centroids[i].astype(self._dtype)
            for i, h in enumerate(factors.horizons)
        }
        output.memberships = memberships.astype(int)
        output.forecast_factors = factors
