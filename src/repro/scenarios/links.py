"""Link models: what happens to a message between node and controller.

A link model sits between the transmission *decision* and the
channel's delivery accounting.  The session asks it, once per slot,
which of the slot's outgoing messages arrive immediately
(:meth:`LinkModel.transfer`); everything else is either lost — the
controller keeps the stale value, the paper's staleness rule — or
matures inside the link and is handed back by :meth:`LinkModel.due`
for re-ingestion through the session's late-arrival contract
(``session.ingest(values, ids, t=origin_slot)``).

:class:`NetworkLink` composes, in order:

1. a per-node **Gilbert–Elliott burst chain** (good/bad channel state,
   advanced once per slot) dropping messages from bad-state nodes with
   probability ``burst_loss``;
2. **i.i.d. loss** with probability ``loss``;
3. **shared-uplink contention**: survivors queue FIFO on uplink
   ``node % uplinks`` and each uplink drains at most
   ``uplink_capacity`` messages per slot (oldest first);
4. **propagation latency**: a drained message arrives ``latency``
   slots after it drains (same-slot only when it drains immediately
   with zero latency).

Everything random is drawn from one explicit seeded generator, so a
scenario is a pure function of its spec and checkpoint/resume can
continue the stream bit-identically (the generator state serializes
with the queues).

Conservation is a first-class invariant::

    sent == delivered_now + delivered_late
            + dropped_loss + dropped_churn + in_flight

with ``in_flight`` counting both uplink-queued and latency-delayed
messages.  The harness asserts it after every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError


@dataclass(frozen=True)
class LinkConfig:
    """Declarative link-model parameters (all adversities off = ideal).

    Args:
        loss: i.i.d. per-message loss probability in ``[0, 1)``.
        burst_enter: Per-slot probability a good node enters the bad
            (bursty) channel state; 0 disables the burst chain.
        burst_exit: Per-slot probability a bad node recovers.
        burst_loss: Loss probability for messages sent from the bad
            state.
        latency: Propagation delay in slots — a delivered message
            reaches the controller this many slots after it drains.
        uplinks: Number of shared uplinks (node ``i`` uses uplink
            ``i % uplinks``); 0 disables contention (dedicated links).
        uplink_capacity: Messages each uplink drains per slot (FIFO,
            oldest origin first).  Required >= 1 when ``uplinks > 0``.
        seed: Seed of the link's private random generator.
    """

    loss: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.5
    burst_loss: float = 0.9
    latency: int = 0
    uplinks: int = 0
    uplink_capacity: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError(f"loss must be in [0, 1), got {self.loss}")
        for field in ("burst_enter", "burst_exit", "burst_loss"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{field} must be in [0, 1], got {value}"
                )
        if self.latency < 0:
            raise ConfigurationError(
                f"latency must be >= 0, got {self.latency}"
            )
        if self.uplinks < 0:
            raise ConfigurationError(
                f"uplinks must be >= 0, got {self.uplinks}"
            )
        if self.uplinks > 0 and self.uplink_capacity < 1:
            raise ConfigurationError(
                "uplink_capacity must be >= 1 when uplinks are shared, "
                f"got {self.uplink_capacity}"
            )

    @property
    def is_ideal(self) -> bool:
        """True when every adversity is off (pass-through link)."""
        return (
            self.loss == 0.0
            and self.burst_enter == 0.0
            and self.latency == 0
            and self.uplinks == 0
        )


class LinkModel:
    """Interface between the session's transmit step and the channel.

    Subclasses decide, per slot, which outgoing messages are delivered
    immediately, which mature for later late-arrival ingestion, and
    which are lost; and they follow the fleet through churn.
    """

    config: LinkConfig

    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    def transfer(
        self, slot: int, sender_ids: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Submit one slot's outgoing messages; return who got through.

        Args:
            slot: The closing slot (the messages' origin slot).
            sender_ids: ``(m,)`` node ids that decided to transmit.
            payload: ``(m, d)`` transmitted values, aligned with
                ``sender_ids``.

        Returns:
            Positions into ``sender_ids`` delivered *within this
            slot*; the rest are lost or in flight.
        """
        raise NotImplementedError

    def due(self, slot: int) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Messages maturing at ``slot``, grouped by origin slot.

        Returns:
            ``(origin_slot, node_ids, values)`` tuples, origin
            ascending — each maps to one
            ``session.ingest(values, node_ids, t=origin_slot)`` call.
        """
        raise NotImplementedError

    def grow(self, count: int) -> None:
        """Follow :meth:`StreamSession.grow`: ``count`` nodes joined."""
        raise NotImplementedError

    def compact(self, keep: np.ndarray) -> None:
        """Follow :meth:`StreamSession.compact`: renumber survivors and
        drop departed nodes' traffic as churn losses."""
        raise NotImplementedError

    def fail_nodes(self, node_ids: np.ndarray) -> None:
        """Crash-restart: drop the named nodes' queued/in-flight
        traffic as churn losses (identities persist)."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Cumulative message accounting (see module docstring)."""
        raise NotImplementedError

    @property
    def in_flight(self) -> int:
        """Messages currently queued or latency-delayed."""
        raise NotImplementedError

    @property
    def is_conserved(self) -> bool:
        """Whether the conservation invariant currently holds."""
        totals = self.counters()
        return totals["sent"] == (
            totals["delivered_now"]
            + totals["delivered_late"]
            + totals["dropped_loss"]
            + totals["dropped_churn"]
            + self.in_flight
        )

    def get_state(self) -> dict:
        raise NotImplementedError

    def set_state(self, state: dict) -> None:
        raise NotImplementedError


class IdealLink(LinkModel):
    """Pass-through link: every message arrives in its own slot.

    Draws no randomness and keeps no queues, so a session running over
    an ideal link is **bit-identical** to one with no link at all (the
    property tests pin this).  Only the counters advance.
    """

    def __init__(self, num_nodes: int, config: Optional[LinkConfig] = None):
        self.config = config if config is not None else LinkConfig()
        if not self.config.is_ideal:
            raise ConfigurationError(
                "IdealLink requires an all-off LinkConfig; use "
                "NetworkLink (or build_link) for adverse configurations"
            )
        if num_nodes < 1:
            raise ConfigurationError(
                f"num_nodes must be >= 1, got {num_nodes}"
            )
        self._num_nodes = int(num_nodes)
        self._sent = 0

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def transfer(
        self, slot: int, sender_ids: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        count = int(np.asarray(sender_ids).shape[0])
        self._sent += count
        return np.arange(count, dtype=np.int64)

    def due(self, slot: int) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        return []

    def grow(self, count: int) -> None:
        self._num_nodes += int(count)

    def compact(self, keep: np.ndarray) -> None:
        self._num_nodes = int(np.asarray(keep).size)

    def fail_nodes(self, node_ids: np.ndarray) -> None:
        pass

    def counters(self) -> Dict[str, int]:
        return {
            "sent": self._sent,
            "delivered_now": self._sent,
            "delivered_late": 0,
            "dropped_loss": 0,
            "dropped_churn": 0,
        }

    @property
    def in_flight(self) -> int:
        return 0

    def get_state(self) -> dict:
        return {"kind": "ideal", "num_nodes": self._num_nodes,
                "sent": self._sent}

    def set_state(self, state: dict) -> None:
        if state.get("kind") != "ideal":
            raise SimulationError(
                f"state is for a {state.get('kind')!r} link, not ideal"
            )
        self._num_nodes = int(state["num_nodes"])
        self._sent = int(state["sent"])


class _Queued(NamedTuple):
    """Messages waiting for uplink capacity, one column per field.

    FIFO by position: within each uplink (``node % uplinks``), a lower
    position drained earlier.  The interleaving of different uplinks
    is never observed.
    """

    origin: np.ndarray  # (m,) int64 origin slot
    node: np.ndarray  # (m,) int64 node id
    values: np.ndarray  # (m, d) float64 payload rows


class _Delayed(NamedTuple):
    """Drained messages waiting out their latency, in scheduling order."""

    origin: np.ndarray
    node: np.ndarray
    values: np.ndarray
    arrival: np.ndarray  # (m,) int64 slot at which ``due`` hands it back


_EMPTY = np.empty(0, dtype=np.int64)
_NO_QUEUE = _Queued(_EMPTY, _EMPTY, np.empty((0, 0)))
_NO_DELAY = _Delayed(_EMPTY, _EMPTY, np.empty((0, 0)), _EMPTY)
_Batch = TypeVar("_Batch", _Queued, _Delayed)


def _take(batch: _Batch, index: np.ndarray) -> _Batch:
    """The messages at ``index`` (positions or a mask), in that order."""
    return type(batch)(*(column[index] for column in batch))


def _join(batches: Sequence[_Batch], empty: _Batch) -> _Batch:
    """``batches`` one after another; ``empty`` when none holds a message."""
    full = [batch for batch in batches if batch.node.size]
    if not full:
        return empty
    if len(full) == 1:
        return full[0]
    return type(empty)(*(np.concatenate(column) for column in zip(*full)))


class NetworkLink(LinkModel):
    """Burst/i.i.d. loss, shared-uplink contention and latency.

    The uplink backlog and the latency-delayed messages are held as
    columns (origin slot, node id, payload rows, and arrival slot for
    the delayed ones), so each slot's traffic moves in a few array
    operations rather than one Python step per message.  Draws, FIFO
    order and state layout match the per-message link of 4.3.0 and
    earlier: archives move between the two both ways, bit for bit.

    Args:
        num_nodes: Initial fleet size.
        config: The link parameters.
    """

    def __init__(self, num_nodes: int, config: LinkConfig) -> None:
        if num_nodes < 1:
            raise ConfigurationError(
                f"num_nodes must be >= 1, got {num_nodes}"
            )
        self.config = config
        self._num_nodes = int(num_nodes)
        # repro: noqa KER-001(seeded generator; the link is a pure function of config)
        self._rng = np.random.default_rng(config.seed)
        self._bad = np.zeros(self._num_nodes, dtype=bool)
        # Every uplink's backlog awaiting drain capacity.
        self._queues = _NO_QUEUE
        # Drained messages awaiting their arrival slot.
        self._pending = _NO_DELAY
        self._sent = 0
        self._delivered_now = 0
        self._delivered_late = 0
        self._dropped_loss = 0
        self._dropped_churn = 0

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    # ------------------------------------------------------------------
    # Per-slot message flow
    # ------------------------------------------------------------------

    def transfer(
        self, slot: int, sender_ids: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """See :meth:`LinkModel.transfer`; ``sender_ids`` are distinct
        (the session rejects duplicate node ids)."""
        cfg = self.config
        sender_ids = np.asarray(sender_ids, dtype=np.int64).ravel()
        payload = np.atleast_2d(np.asarray(payload, dtype=float))
        count = int(sender_ids.shape[0])
        self._sent += count
        if cfg.burst_enter > 0.0:
            # One draw per node per slot: bad nodes recover with
            # p=burst_exit, good nodes degrade with p=burst_enter.
            u = self._rng.random(self._num_nodes)
            self._bad = np.where(
                self._bad, u >= cfg.burst_exit, u < cfg.burst_enter
            )
        keep = np.ones(count, dtype=bool)
        if count and cfg.loss > 0.0:
            keep &= self._rng.random(count) >= cfg.loss
        if count and cfg.burst_enter > 0.0:
            bursty = self._bad[sender_ids]
            if bursty.any():
                keep &= ~(bursty & (self._rng.random(count) < cfg.burst_loss))
        kept = np.flatnonzero(keep).astype(np.int64, copy=False)
        self._dropped_loss += count - int(kept.size)

        if cfg.uplinks == 0 and cfg.latency == 0:
            self._delivered_now += int(kept.size)
            return kept
        survivors = _Queued(
            np.full(kept.size, slot, dtype=np.int64),
            sender_ids[kept],
            payload[kept],
        )
        if cfg.uplinks == 0:
            self._schedule(slot, survivors)
            return np.empty(0, dtype=np.int64)
        drained = self._drain(survivors)
        immediate = _EMPTY
        if cfg.latency == 0:
            now = drained.origin == slot
            immediate = drained.node[now]
            drained = _take(drained, ~now)
        self._schedule(slot, drained)
        if not immediate.size:
            return np.empty(0, dtype=np.int64)
        self._delivered_now += int(immediate.size)
        return np.flatnonzero(np.isin(sender_ids, immediate)).astype(
            np.int64, copy=False
        )

    def _drain(self, arrivals: _Queued) -> _Queued:
        """Queue ``arrivals`` behind the backlog, then pop up to
        ``uplink_capacity`` messages per uplink, FIFO.

        Returns the drained messages uplink by uplink, oldest first
        within each.
        """
        uplinks = self.config.uplinks
        capacity = self.config.uplink_capacity
        backlog = _join((self._queues, arrivals), arrivals)
        uplink = backlog.node % uplinks
        order = np.argsort(uplink, kind="stable")
        counts = np.bincount(uplink, minlength=uplinks)
        if counts.max() <= capacity:  # the usual slot: everything drains
            self._queues = _NO_QUEUE
            return _take(backlog, order)
        # Rank within its uplink of each message in ``order``.
        starts = np.cumsum(counts) - counts
        rank = np.arange(order.size) - starts[uplink[order]]
        drained = order[rank < capacity]
        left = np.ones(order.size, dtype=bool)
        left[drained] = False
        self._queues = _take(backlog, left)
        return _take(backlog, drained)

    def _schedule(self, now: int, batch: _Queued) -> None:
        """Park drained messages until their propagation delay elapses.

        Arrival is at least ``now + 1``: slot ``now``'s late arrivals
        were already re-ingested before this slot's transfer ran.
        """
        if not batch.node.size:
            return
        arrival = np.full(
            batch.node.size, now + max(self.config.latency, 1),
            dtype=np.int64,
        )
        delayed = _Delayed(*batch, arrival)
        self._pending = _join((self._pending, delayed), delayed)

    def due(self, slot: int) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        pending = self._pending
        matured = pending.arrival == slot
        count = int(np.count_nonzero(matured))
        if not count:
            return []
        self._delivered_late += count
        if count == matured.size:  # the usual slot: all of it matures
            batch = pending
            self._pending = _NO_DELAY
        else:
            batch = _take(pending, matured)
            self._pending = _take(pending, ~matured)
        # Group by origin, ascending; scheduling order within a group.
        order = np.argsort(batch.origin, kind="stable")
        origin = batch.origin[order]
        node = batch.node[order]
        values = batch.values[order]
        edges = [0, *(np.flatnonzero(origin[1:] != origin[:-1]) + 1), count]
        return [
            (int(origin[start]), node[start:stop], values[start:stop])
            for start, stop in zip(edges[:-1], edges[1:])
        ]

    # ------------------------------------------------------------------
    # Fleet churn
    # ------------------------------------------------------------------

    def grow(self, count: int) -> None:
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        self._num_nodes += int(count)
        self._bad = np.concatenate(
            [self._bad, np.zeros(int(count), dtype=bool)]
        )

    def compact(self, keep: np.ndarray) -> None:
        keep = np.asarray(keep, dtype=np.int64).ravel()
        remap = np.full(self._num_nodes, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size, dtype=np.int64)
        self._bad = self._bad[keep]
        self._num_nodes = int(keep.size)
        queued = self._renumber(self._queues, remap)
        # Re-bucket: uplink assignment follows the *new* node ids.
        # Deterministic order within an uplink: origin slot, then new
        # node id.
        self._queues = _take(queued, np.lexsort((queued.node, queued.origin)))
        self._pending = self._renumber(self._pending, remap)

    def _renumber(self, batch: _Batch, remap: np.ndarray) -> _Batch:
        """``batch`` with node ids mapped through ``remap``; messages of
        nodes mapped to -1 are churn losses."""
        node = remap[batch.node]
        return self._survivors(batch._replace(node=node), node >= 0)

    def _survivors(self, batch: _Batch, alive: np.ndarray) -> _Batch:
        """The messages of ``batch`` that ``alive`` keeps; the others
        are churn losses."""
        self._dropped_churn += int(alive.size - np.count_nonzero(alive))
        return _take(batch, alive)

    def fail_nodes(self, node_ids: np.ndarray) -> None:
        failed = np.asarray(node_ids, dtype=np.int64).ravel()
        self._queues = self._survivors(
            self._queues, ~np.isin(self._queues.node, failed)
        )
        self._pending = self._survivors(
            self._pending, ~np.isin(self._pending.node, failed)
        )
        # A restarted node comes back with a clean channel.
        self._bad[failed] = False

    # ------------------------------------------------------------------
    # Accounting and state
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "sent": self._sent,
            "delivered_now": self._delivered_now,
            "delivered_late": self._delivered_late,
            "dropped_loss": self._dropped_loss,
            "dropped_churn": self._dropped_churn,
        }

    @property
    def in_flight(self) -> int:
        return int(self._queues.node.size + self._pending.node.size)

    def get_state(self) -> dict:
        """Per-uplink packs of the backlog and per-arrival-slot packs of
        the delayed messages, the layout archives from 4.3.0 and
        earlier hold."""

        def pack(batch: _Batch, mask: np.ndarray) -> Optional[dict]:
            if not mask.any():
                return None
            return {
                "origin": batch.origin[mask],
                "node": batch.node[mask],
                "values": batch.values[mask],
            }

        queued, pending = self._queues, self._pending
        arrivals = np.unique(pending.arrival).tolist()
        return {
            "kind": "network",
            "num_nodes": self._num_nodes,
            "bad": self._bad.copy(),
            "queues": [
                pack(queued, queued.node % self.config.uplinks == uplink)
                for uplink in range(self.config.uplinks)
            ],
            "pending_slots": arrivals,
            "pending": [
                pack(pending, pending.arrival == arrival)
                for arrival in arrivals
            ],
            "counters": self.counters(),
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        if state.get("kind") != "network":
            raise SimulationError(
                f"state is for a {state.get('kind')!r} link, not network"
            )

        def unpack(packed: Optional[dict]) -> _Queued:
            # Copies, so the link never aliases the checkpoint's arrays.
            if packed is None:
                return _NO_QUEUE
            return _Queued(
                np.array(packed["origin"], dtype=np.int64),
                np.array(packed["node"], dtype=np.int64),
                np.array(packed["values"], dtype=float),
            )

        queues = state["queues"]
        if len(queues) != self.config.uplinks:
            raise SimulationError(
                f"state has {len(queues)} uplink queues, link has "
                f"{self.config.uplinks} (config mismatch)"
            )
        self._num_nodes = int(state["num_nodes"])
        self._bad = np.asarray(state["bad"], dtype=bool).copy()
        self._queues = _join([unpack(packed) for packed in queues], _NO_QUEUE)
        delayed = []
        for arrival, packed in zip(state["pending_slots"], state["pending"]):
            batch = unpack(packed)
            delayed.append(_Delayed(*batch, np.full(
                batch.node.size, int(arrival), dtype=np.int64
            )))
        self._pending = _join(delayed, _NO_DELAY)
        totals = state["counters"]
        self._sent = int(totals["sent"])
        self._delivered_now = int(totals["delivered_now"])
        self._delivered_late = int(totals["delivered_late"])
        self._dropped_loss = int(totals["dropped_loss"])
        self._dropped_churn = int(totals["dropped_churn"])
        # repro: noqa KER-001(resuming the serialized generator mid-stream)
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng"]
        self._rng = rng


def build_link(config: LinkConfig, num_nodes: int) -> LinkModel:
    """The right link for a config: pass-through when all-off."""
    if config.is_ideal:
        return IdealLink(num_nodes, config)
    return NetworkLink(num_nodes, config)


__all__ = [
    "IdealLink",
    "LinkConfig",
    "LinkModel",
    "NetworkLink",
    "build_link",
]
