"""Stateful serving sessions: the first-class streaming surface.

A :class:`StreamSession` is one long-lived deployment of the paper's
system: it owns the live state — the columnar
:class:`~repro.simulation.fleet.FleetState`, the transport
:class:`~repro.simulation.transport.Channel`, the bounded
:class:`~repro.core.ring.SlotRing` histories, the per-group
:class:`~repro.clustering.dynamic.DynamicClusterTracker` and
:class:`~repro.forecasting.bank.ForecasterBank` instances — and exposes
the serving API:

* :meth:`StreamSession.ingest` — one time slot of measurements, **full
  or partial**: a subset of ``node_ids`` may report (absent nodes keep
  their stored values under the staleness rule), and late arrivals for
  already-closed slots are applied or dropped under a bounded reorder
  window with explicit counters;
* :meth:`StreamSession.forecast` — the current multi-horizon per-node
  forecasts, on demand;
* :meth:`StreamSession.snapshot` — a versioned, portable
  :class:`~repro.checkpoint.Checkpoint` from which
  :meth:`repro.api.Engine.resume` reconstructs a session that continues
  **bit-identically** to one that never stopped.

The per-slot hot path is vectorized: the whole fleet's transmission
decisions are one batched slot-kernel call
(:data:`repro.registry.SLOT_KERNELS`) over the fleet columns — the same
kernels the batch collection backends iterate — so a session slot costs
array operations, not ``N`` Python method calls.  A session's policy is
a slot-kernel name; a custom policy is a
:func:`~repro.registry.register_slot_kernel` registration.

Partial-slot and late-arrival semantics (documented contract):

* A frontier ``ingest(values, node_ids)`` call closes exactly one slot.
  Only the named nodes run their transmission policy (their clocks and
  policy state advance); absent nodes stay silent, and the central
  store keeps their last received value — the paper's staleness rule.
  Clustering and forecasting always see the full ``(N, d)`` store.
* A call with ``t < session.time`` is a **late arrival** for a closed
  slot.  If the slot is older than ``reorder_window``, all its values
  are dropped (``late_dropped``).  Otherwise each value is applied iff
  the store has received nothing newer for that node
  (``last_update < t``): applied values update the store and transport
  counters (``late_applied``) and are seen by the *next* frontier slot;
  superseded values are dropped.  Late data never re-runs transmission
  policies and never re-opens closed clustering slots.
* ``t > session.time`` is an error — slots close in order.

Two orthogonal extensions ride on that contract (the scenario engine,
:mod:`repro.scenarios`, composes both):

* **Link models** — an optional ``link`` (see
  :mod:`repro.scenarios.links`) sits between the transmission decision
  and the channel.  Policies still run for every reporting node (their
  clocks and policy state advance on the *decision*), but only the
  messages the link delivers within the slot reach the store and the
  transport counters; lost messages leave the previous stored value in
  place (the node retries per its policy — an unobserved node's forced
  first transmission simply happens again), and delayed messages
  mature inside the link until the driver re-ingests them as late
  arrivals (``ingest(values, ids, t=origin_slot)``) through the
  contract above.  No link (or the ideal link) is bit-identical to the
  plain path.
* **Fleet churn** — :meth:`StreamSession.grow` /
  :meth:`StreamSession.compact` resize the fleet between slots
  (columns reallocate; the channel's counter column is re-adopted with
  retired-message accounting, the pipeline's bounded node-aligned
  histories are remapped, cluster-level model state is untouched), and
  :meth:`StreamSession.restart_nodes` injects crash-restart failures
  (policy state reset, forced retransmission, clock and identity
  kept).
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

import numpy as np

from repro.checkpoint import CHECKPOINT_FORMAT_VERSION, Checkpoint
from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    ForecastFactors,
    ForecasterFactory,
    OnlinePipeline,
    StepOutput,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DataError,
    NotFittedError,
)
from repro.registry import SLOT_KERNELS
from repro.simulation.fleet import FleetState
from repro.simulation.transport import Channel, TransportStats

if TYPE_CHECKING:  # import cycle: scenarios builds on the session API
    from repro.scenarios.links import LinkModel


class StreamSession:
    """A live, checkpointable streaming deployment of the pipeline.

    Built via :meth:`repro.api.Engine.session` (or
    :meth:`~repro.api.Engine.resume`); constructing directly is
    equivalent.

    Args:
        config: Full pipeline configuration.
        num_nodes: Fleet size ``N``.
        num_resources: Resource dimensionality ``d``.
        policy: Transmission-policy name (any entry of
            :data:`repro.registry.SLOT_KERNELS`).
        forecaster_factory: Optional forecasting-model override,
            forwarded to the pipeline's banks.
        reorder_window: How many already-closed slots a late arrival
            may lag behind the frontier and still be applied; 0 (the
            default) drops all late data.
        link: Optional link model (see :mod:`repro.scenarios.links`)
            interposed between transmission decisions and the channel;
            None (default) is the plain lossless path.
    """

    def __init__(
        self,
        config: PipelineConfig,
        num_nodes: int,
        num_resources: int,
        *,
        policy: str = "adaptive",
        forecaster_factory: Optional[ForecasterFactory] = None,
        reorder_window: int = 0,
        link: Optional["LinkModel"] = None,
    ) -> None:
        if num_nodes < 1 or num_resources < 1:
            raise ConfigurationError(
                "num_nodes and num_resources must be >= 1"
            )
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window}"
            )
        self.config = config
        self.num_nodes = int(num_nodes)
        self.num_resources = int(num_resources)
        self.reorder_window = int(reorder_window)
        self._custom_forecaster_factory = forecaster_factory is not None
        self.policy = policy
        self._kernel = SLOT_KERNELS.create(policy, config.transmission)
        if link is not None and link.num_nodes != int(num_nodes):
            raise ConfigurationError(
                f"link models {link.num_nodes} nodes, session has "
                f"{num_nodes}"
            )
        self.link = link

        # Live state: one columnar fleet (the central store's z_t is its
        # stored column) and the channel's counters backed by its
        # message_counts column.
        self.fleet = FleetState(
            self.num_nodes, self.num_resources, dtype=config.np_dtype
        )
        self.channel = Channel(node_counts=self.fleet.message_counts)
        self.pipeline = OnlinePipeline(
            self.num_nodes,
            self.num_resources,
            config,
            forecaster_factory=forecaster_factory,
        )
        self._time = 0
        self.late_applied = 0
        self.late_dropped = 0
        # Latest per-node forecasts {h: (N, d)} — the forecast() surface
        # — and the factors they were composed from, which is what a
        # checkpoint stores: a resumed session composes its forecasts
        # at its first forecast() instead of waiting for the next ingest.
        self._forecasts: Optional[Dict[int, np.ndarray]] = None
        self._factors: Optional[ForecastFactors] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def time(self) -> int:
        """Number of closed slots (the ingestion frontier)."""
        return self._time

    @property
    def transport_stats(self) -> TransportStats:
        """Cumulative message/byte counters of this session."""
        return self.channel.stats

    @property
    def empirical_frequency(self) -> float:
        """Fleet-average transmission frequency over closed slots."""
        if self._time == 0:
            return 0.0
        return self.channel.stats.messages / (self._time * self.num_nodes)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(
        self,
        values: np.ndarray,
        node_ids: Optional[Sequence[int]] = None,
        t: Optional[int] = None,
    ) -> Optional[StepOutput]:
        """Ingest one slot of measurements — full, partial, or late.

        Args:
            values: Fresh measurements, shape ``(n, d)`` (or ``(n,)``
                when d = 1), one row per reporting node.
            node_ids: The reporting nodes, aligned with ``values``
                rows.  None means a full slot (``n`` must equal N, row
                ``i`` is node ``i``).
            t: The slot the measurements belong to.  None or the
                current frontier closes a new slot; an earlier value is
                a late arrival (see the module docstring for the
                apply/drop contract).

        Returns:
            The slot's :class:`~repro.core.pipeline.StepOutput` (with
            per-slot transport delta and timings) for frontier calls;
            None for late arrivals, which close no slot.
        """
        started = _time.perf_counter()
        x = np.asarray(values, dtype=self.fleet.dtype)
        if x.ndim == 1:
            x = x[:, np.newaxis]
        if x.ndim != 2 or x.shape[1] != self.num_resources:
            raise DataError(
                f"values must be (n, {self.num_resources}), got "
                f"{np.asarray(values).shape}"
            )
        if not np.isfinite(x).all():
            raise DataError("values contain non-finite measurements")
        if node_ids is None:
            ids = None
            if x.shape[0] != self.num_nodes:
                raise DataError(
                    f"a full slot needs {self.num_nodes} rows, got "
                    f"{x.shape[0]} (pass node_ids for a partial slot)"
                )
        else:
            ids = np.asarray(node_ids, dtype=np.int64).ravel()
            if ids.shape[0] != x.shape[0]:
                raise DataError(
                    f"{ids.shape[0]} node_ids for {x.shape[0]} value rows"
                )
            if ids.size and (
                ids.min() < 0 or ids.max() >= self.num_nodes
            ):
                raise DataError(
                    f"node_ids outside [0, {self.num_nodes})"
                )
            if np.unique(ids).size != ids.size:
                raise DataError("node_ids contains duplicates")
        slot = self._time if t is None else int(t)
        if slot > self._time:
            raise DataError(
                f"slot {slot} is ahead of the frontier {self._time}; "
                "slots close in order"
            )
        if slot < self._time:
            self._ingest_late(x, ids, slot)
            return None
        return self._ingest_frontier(x, ids, started)

    def _ingest_frontier(
        self, x: np.ndarray, ids: Optional[np.ndarray], started: float
    ) -> StepOutput:
        """Close one slot at the frontier: transmit, store, cluster,
        train/update, forecast."""
        slot = self._time
        stage_before = dict(self.pipeline.stage_seconds)
        counts = self._transmit(x, ids, slot)
        collection_seconds = _time.perf_counter() - started

        output = self.pipeline.step(self.fleet.stored.copy())
        self._time += 1
        factors = output.forecast_factors
        if factors is not None:
            # The session keeps these for forecast() and the next
            # snapshot, so the caller gets them read-only.
            for array in (
                *output.node_forecasts.values(),
                factors.centroids, factors.memberships, factors.offsets,
            ):
                array.flags.writeable = False
        self._forecasts = output.node_forecasts
        self._factors = factors

        output.transport = TransportStats.from_node_counts(
            counts, self.num_resources
        )
        output.late_applied = self.late_applied
        output.late_dropped = self.late_dropped
        timings = {"collection": collection_seconds}
        for stage, seconds in self.pipeline.stage_seconds.items():
            timings[stage] = seconds - stage_before.get(stage, 0.0)
        timings["total"] = _time.perf_counter() - started
        output.timings = timings
        return output

    def _transmit(
        self, x: np.ndarray, ids: Optional[np.ndarray], slot: int
    ) -> np.ndarray:
        """One batched slot-kernel call over the active nodes' columns.

        Returns this slot's per-node delivered-message counts ``(N,)``.
        """
        fleet = self.fleet
        if ids is None:
            # Full slot: operate on the columns directly (the kernel
            # mutates policy_state in place, no gather/scatter needed).
            transmit = self._kernel(
                x, fleet.stored, fleet.observed, fleet.policy_state,
                fleet.times,
            )
            fleet.times += 1
            sender_ids = np.flatnonzero(transmit)
        else:
            state = fleet.policy_state[ids]
            transmit = self._kernel(
                x, fleet.stored[ids], fleet.observed[ids], state,
                fleet.times[ids],
            )
            fleet.policy_state[ids] = state
            fleet.times[ids] += 1
            sender_ids = ids[transmit]
        payload = x[transmit]
        if self.link is not None:
            # The link decides which of this slot's messages arrive now;
            # the rest are lost (previous stored value stays) or mature
            # inside the link for later late-arrival ingestion.  The
            # decision already happened: clocks and policy state
            # advanced above for every sender regardless of delivery.
            kept = self.link.transfer(slot, sender_ids, payload)
            sender_ids = sender_ids[kept]
            payload = payload[kept]
        fleet.stored[sender_ids] = payload
        fleet.observed[sender_ids] = True
        fleet.last_update[sender_ids] = slot
        return self.channel.record_deliveries(
            sender_ids, self.num_nodes, self.num_resources
        )

    def _ingest_late(
        self, x: np.ndarray, ids: Optional[np.ndarray], slot: int
    ) -> None:
        """Apply or drop a late arrival for an already-closed slot."""
        if ids is None:
            ids = np.arange(self.num_nodes, dtype=np.int64)
        if self._time - slot > self.reorder_window:
            self.late_dropped += int(ids.size)
            return
        fleet = self.fleet
        fresh = fleet.last_update[ids] < slot
        apply_ids = ids[fresh]
        fleet.ensure_dim(self.num_resources)
        fleet.stored[apply_ids] = x[fresh]
        fleet.observed[apply_ids] = True
        fleet.last_update[apply_ids] = slot
        self.channel.record_deliveries(
            apply_ids, self.num_nodes, self.num_resources
        )
        self.late_applied += int(apply_ids.size)
        self.late_dropped += int(ids.size - apply_ids.size)

    # ------------------------------------------------------------------
    # Forecasts on demand
    # ------------------------------------------------------------------

    def forecast(
        self, horizons: Optional[Sequence[int]] = None
    ) -> Dict[int, np.ndarray]:
        """Current per-node forecasts ``{h: (N, d)}``.

        Available as soon as forecasting starts, including immediately
        after a resume (the latest forecasts travel in the checkpoint,
        as the factors of Eq. 12; the first call after a resume
        composes them).  The arrays are read-only, as are
        ``StepOutput.node_forecasts``: the session keeps them.  Copy
        one to write into it.

        Args:
            horizons: Horizons to return, each in ``1..max_horizon``;
                None returns every available horizon.

        Raises:
            NotFittedError: Before forecasting starts (no slot closed
                yet, or still inside the initial collection phase).
        """
        if self._forecasts is None and self._factors is not None:
            self._forecasts = self._factors.compose(
                self.pipeline.groups, self.config.np_dtype
            )
            for forecast in self._forecasts.values():
                forecast.flags.writeable = False
        available = self._forecasts
        if available is None:
            raise NotFittedError(
                "no forecasts yet: the session is still in its initial "
                f"collection phase "
                f"({self.config.forecasting.initial_collection} slots)"
            )
        if horizons is None:
            return dict(available)
        selected = {}
        for h in horizons:
            if h not in available:
                raise DataError(
                    f"horizon {h} not available; forecasts cover "
                    f"1..{self.config.forecasting.max_horizon}"
                )
            selected[h] = available[h]
        return selected

    # ------------------------------------------------------------------
    # Fleet churn
    # ------------------------------------------------------------------

    def grow(self, count: int) -> np.ndarray:
        """Admit ``count`` new nodes between slots.

        Every column reallocates (:meth:`FleetState.grow
        <repro.simulation.fleet.FleetState.grow>`); the channel
        re-adopts the counter column, the pipeline's node-aligned
        histories are remapped (new nodes backfilled), and the link
        model (if any) widens.
        New nodes start unobserved with their clocks at the session
        frontier, so their first report triggers the forced initial
        transmission exactly like a fresh fleet's.

        Returns:
            The new nodes' ids, ``old_n .. old_n + count - 1``.
        """
        old_n = self.num_nodes
        new_ids = self.fleet.grow(count, clock=self._time)
        self.num_nodes = self.fleet.num_nodes
        self.channel.stats.adopt_column(self.fleet.message_counts)
        index_map = np.concatenate([
            np.arange(old_n, dtype=np.int64),
            np.full(int(count), -1, dtype=np.int64),
        ])
        self.pipeline.reindex_nodes(index_map)
        if self.link is not None:
            self.link.grow(count)
        return new_ids

    def compact(self, keep: Sequence[int]) -> None:
        """Remove departed nodes between slots, renumbering survivors.

        ``keep`` (strictly increasing old ids) become nodes ``0..k-1``
        in order.  Surviving nodes carry every column value across; the
        channel re-adopts the counter column (departed counts move to
        ``retired_messages``, cumulative totals unchanged), the
        pipeline's histories are gathered, and the link model drops the
        departed nodes' queued traffic as churn losses.
        """
        keep = np.asarray(keep, dtype=np.int64).ravel()
        self.fleet.compact(keep)
        self.num_nodes = self.fleet.num_nodes
        self.channel.stats.adopt_column(self.fleet.message_counts)
        self.pipeline.reindex_nodes(keep)
        if self.link is not None:
            self.link.compact(keep)

    def restart_nodes(self, node_ids: Sequence[int]) -> None:
        """Crash-restart failure injection: nodes lose local state.

        The named nodes forget that they ever transmitted (``observed``
        cleared, ``policy_state`` zeroed), so their next report is a
        forced initial transmission.  Their clocks (``fleet.times``)
        keep running: a restarted node resumes the fleet's time line,
        it does not restart it at 0.  The central store keeps their
        last received value (the controller does not know they
        crashed); the link drops their queued/in-flight traffic as
        churn losses.
        """
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.num_nodes:
            raise DataError(f"node_ids outside [0, {self.num_nodes})")
        if np.unique(ids).size != ids.size:
            raise DataError("node_ids contains duplicates")
        self.fleet.observed[ids] = False
        self.fleet.policy_state[ids] = 0.0
        if self.link is not None:
            self.link.fail_nodes(ids)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Checkpoint:
        """Capture the session as a versioned, portable checkpoint.

        Composes the ``get_state`` contracts of every owned component.
        Resuming the result (:meth:`repro.api.Engine.resume`) yields a
        session whose every future output — forecasts, cluster
        assignments, transport counters — is bit-identical to this one
        continuing uninterrupted.
        """
        state: Dict[str, object] = {
            "fleet": self.fleet.get_state(),
            "transport": self.channel.stats.get_state(),
            "pipeline": self.pipeline.get_state(),
            # The latest forecasts, so a resumed session serves
            # forecast() immediately.
            "forecasts": self._forecast_state(),
            # Link models serialize their queues and RNG mid-stream, so
            # snapshotting with messages in flight is fine — they mature
            # identically after resume.
            "link": None if self.link is None else self.link.get_state(),
        }
        session = {
            "num_nodes": self.num_nodes,
            "num_resources": self.num_resources,
            "time": self._time,
            "policy": self.policy,
            "custom_forecaster_factory": self._custom_forecaster_factory,
            "reorder_window": self.reorder_window,
            "late_applied": self.late_applied,
            "late_dropped": self.late_dropped,
            "linked": self.link is not None,
        }
        return Checkpoint(
            config=self.config.to_dict(),
            session=session,
            state=state,
            version=CHECKPOINT_FORMAT_VERSION,
        )

    def _forecast_state(self) -> Optional[Dict[str, object]]:
        """The latest forecasts as checkpoint state: their factors (JSON
        keys must be strings, hence the horizon list beside the
        arrays), or, for a session resumed from a format-1 or format-2
        archive that has not ingested since, the archived ``values``."""
        factors = self._factors
        if factors is not None:
            return {
                "horizons": list(factors.horizons),
                "centroids": factors.centroids,
                "memberships": factors.memberships,
                "offsets": factors.offsets,
            }
        if self._forecasts is not None:
            horizons = sorted(self._forecasts)
            return {
                "horizons": horizons,
                "values": [self._forecasts[h] for h in horizons],
            }
        return None

    def save(self, path: Union[str, Path]) -> Path:
        """Convenience: :meth:`snapshot` and write it to ``path``."""
        return self.snapshot().save(path)

    def restore(self, checkpoint: Checkpoint) -> None:
        """Load a checkpoint's state into this (freshly built) session.

        The session must have been constructed with the checkpoint's
        shape and configuration — :meth:`repro.api.Engine.resume` is
        the validated front door.
        """
        meta = checkpoint.session
        if (
            int(meta["num_nodes"]) != self.num_nodes
            or int(meta["num_resources"]) != self.num_resources
        ):
            raise CheckpointError(
                f"checkpoint holds a {meta['num_nodes']}x"
                f"{meta['num_resources']} fleet, session is "
                f"{self.num_nodes}x{self.num_resources}"
            )
        state = checkpoint.state
        adopt = checkpoint.claim_adoption()
        if adopt:
            # Zero-copy resume: the fleet's columns and the pipeline's
            # history windows become the checkpoint's own arrays
            # (copy-on-write views of the archive for mmap loads), so
            # restoring an N=1M session never holds two copies of the
            # state.  The channel's counter column is re-pointed at the
            # adopted array before set_state re-validates the totals
            # against it.
            self.fleet.adopt_state(state["fleet"])
            self.channel.stats.rebind_column(self.fleet.message_counts)
        else:
            self.fleet.set_state(state["fleet"])
        self.channel.stats.set_state(state["transport"])
        self.pipeline.set_state(state["pipeline"], adopt=adopt)
        # Archives written by 1.x sessions also carry per-node policy
        # objects and slot-path flags.  Resume ignores them: the fleet's
        # policy_state and times columns hold every registered policy's
        # whole state.
        if bool(meta.get("linked", False)):
            if self.link is None:
                raise CheckpointError(
                    "checkpoint was taken from a linked session (its "
                    "link model may hold in-flight messages); resume "
                    "with a link of the same configuration"
                )
            self.link.set_state(state["link"])
        # A linkless checkpoint resumed with a link keeps the freshly
        # constructed link: the scenario starts applying from here on.
        self._time = int(meta["time"])
        self.reorder_window = int(meta["reorder_window"])
        self.late_applied = int(meta["late_applied"])
        self.late_dropped = int(meta["late_dropped"])
        forecasts = state.get("forecasts")
        self._forecasts = self._factors = None
        if forecasts is not None and "values" in forecasts:
            # Formats 1 and 2 store the forecasts composed.
            self._forecasts = {
                int(h): _read_only(values)
                for h, values in zip(
                    forecasts["horizons"], forecasts["values"]
                )
            }
        elif forecasts is not None:
            self._factors = ForecastFactors(
                tuple(int(h) for h in forecasts["horizons"]),
                _read_only(forecasts["centroids"]),
                _read_only(forecasts["memberships"]),
                _read_only(forecasts["offsets"]),
            )


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view; the checkpoint's own array keeps its flags."""
    view = np.asarray(values).view()
    view.flags.writeable = False
    return view


__all__ = ["StreamSession"]
