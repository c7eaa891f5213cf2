"""The per-message tuple link, kept as an oracle for the columnar one.

:class:`TupleNetworkLink` is the earlier implementation of
:class:`repro.scenarios.links.NetworkLink`: every queued or in-flight
message is a ``(origin, node, value)`` tuple, and ``transfer``, ``due``,
``compact``, ``fail_nodes`` and the state pack/unpack walk them one at a
time.  ``tests/test_link_oracle.py`` drives both links through the same
seeded operation sequences and requires identical outputs, counters
and state.  Do not optimize this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.scenarios.links import LinkConfig, LinkModel

#: One queued or in-flight message: (origin slot, node id, payload).
_Record = Tuple[int, int, np.ndarray]


class TupleNetworkLink(LinkModel):
    """:class:`~repro.scenarios.links.NetworkLink` with one Python tuple
    per message, in per-uplink lists and a dict of per-arrival lists.

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
        self._rng = np.random.default_rng(config.seed)
        self._bad = np.zeros(self._num_nodes, dtype=bool)
        # Per-uplink FIFO backlogs of messages awaiting drain capacity.
        self._queues: List[List[_Record]] = [
            [] for _ in range(max(config.uplinks, 0))
        ]
        # Latency-delayed messages keyed by arrival slot.
        self._pending: Dict[int, List[_Record]] = {}
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
        self._dropped_loss += int(count - keep.sum())

        if cfg.uplinks > 0:
            for pos in np.flatnonzero(keep).tolist():
                node = int(sender_ids[pos])
                self._queues[node % cfg.uplinks].append(
                    (int(slot), node, payload[pos].copy())
                )
            immediate = set()
            for origin, node, value in self._drain():
                if origin == slot and cfg.latency == 0:
                    immediate.add(node)
                else:
                    self._schedule(slot, origin, node, value)
            self._delivered_now += len(immediate)
            if immediate:
                order = [
                    p for p in range(count)
                    if int(sender_ids[p]) in immediate
                ]
                return np.asarray(order, dtype=np.int64)
            return np.empty(0, dtype=np.int64)
        if cfg.latency == 0:
            positions = np.flatnonzero(keep)
            self._delivered_now += int(positions.size)
            return positions.astype(np.int64)
        for pos in np.flatnonzero(keep).tolist():
            self._schedule(
                slot, int(slot), int(sender_ids[pos]), payload[pos].copy()
            )
        return np.empty(0, dtype=np.int64)

    def _drain(self) -> List[_Record]:
        """Pop up to ``uplink_capacity`` records per uplink, FIFO."""
        capacity = self.config.uplink_capacity
        drained: List[_Record] = []
        for queue in self._queues:
            take = min(capacity, len(queue))
            drained.extend(queue[:take])
            del queue[:take]
        return drained

    def _schedule(
        self, now: int, origin: int, node: int, value: np.ndarray
    ) -> None:
        """Park a drained message until its propagation delay elapses.

        Arrival is at least ``now + 1``: slot ``now``'s late arrivals
        were already re-ingested before this slot's transfer ran.
        """
        arrival = max(now + self.config.latency, now + 1)
        self._pending.setdefault(arrival, []).append((origin, node, value))

    def due(self, slot: int) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        matured = self._pending.pop(int(slot), [])
        if not matured:
            return []
        self._delivered_late += len(matured)
        by_origin: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for origin, node, value in matured:
            by_origin.setdefault(origin, []).append((node, value))
        out = []
        for origin in sorted(by_origin):
            group = by_origin[origin]
            ids = np.asarray([node for node, _ in group], dtype=np.int64)
            values = np.stack([value for _, value in group])
            out.append((origin, ids, values))
        return out

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
        survivors: List[_Record] = []
        for queue in self._queues:
            for origin, node, value in queue:
                if remap[node] >= 0:
                    survivors.append((origin, int(remap[node]), value))
                else:
                    self._dropped_churn += 1
            queue.clear()
        # Re-bucket: uplink assignment follows the *new* node ids.
        # Deterministic order: origin slot, then new node id.
        survivors.sort(key=lambda record: (record[0], record[1]))
        for record in survivors:
            self._queues[record[1] % self.config.uplinks].append(record)
        for arrival in sorted(self._pending):
            kept = []
            for origin, node, value in self._pending[arrival]:
                if remap[node] >= 0:
                    kept.append((origin, int(remap[node]), value))
                else:
                    self._dropped_churn += 1
            if kept:
                self._pending[arrival] = kept
            else:
                del self._pending[arrival]

    def fail_nodes(self, node_ids: np.ndarray) -> None:
        failed = set(np.asarray(node_ids, dtype=np.int64).ravel().tolist())
        for queue in self._queues:
            kept = [r for r in queue if r[1] not in failed]
            self._dropped_churn += len(queue) - len(kept)
            queue[:] = kept
        for arrival in sorted(self._pending):
            kept = [r for r in self._pending[arrival] if r[1] not in failed]
            self._dropped_churn += len(self._pending[arrival]) - len(kept)
            if kept:
                self._pending[arrival] = kept
            else:
                del self._pending[arrival]
        # A restarted node comes back with a clean channel.
        self._bad[np.asarray(sorted(failed), dtype=np.int64)] = False

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
        queued = sum(len(queue) for queue in self._queues)
        delayed = sum(len(batch) for batch in self._pending.values())
        return queued + delayed

    def get_state(self) -> dict:
        def pack(records: List[_Record]) -> Optional[dict]:
            if not records:
                return None
            return {
                "origin": np.asarray([r[0] for r in records], dtype=np.int64),
                "node": np.asarray([r[1] for r in records], dtype=np.int64),
                "values": np.stack([r[2] for r in records]),
            }

        return {
            "kind": "network",
            "num_nodes": self._num_nodes,
            "bad": self._bad.copy(),
            "queues": [pack(queue) for queue in self._queues],
            "pending_slots": sorted(self._pending),
            "pending": [
                pack(self._pending[arrival])
                for arrival in sorted(self._pending)
            ],
            "counters": self.counters(),
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        if state.get("kind") != "network":
            raise SimulationError(
                f"state is for a {state.get('kind')!r} link, not network"
            )

        def unpack(packed: Optional[dict]) -> List[_Record]:
            if packed is None:
                return []
            origins = np.asarray(packed["origin"], dtype=np.int64)
            node_column = np.asarray(packed["node"], dtype=np.int64)
            values = np.asarray(packed["values"], dtype=float)
            return [
                (int(origins[k]), int(node_column[k]), values[k].copy())
                for k in range(origins.shape[0])
            ]

        self._num_nodes = int(state["num_nodes"])
        self._bad = np.asarray(state["bad"], dtype=bool).copy()
        queues = state["queues"]
        if len(queues) != len(self._queues):
            raise SimulationError(
                f"state has {len(queues)} uplink queues, link has "
                f"{len(self._queues)} (config mismatch)"
            )
        self._queues = [unpack(packed) for packed in queues]
        self._pending = {
            int(arrival): unpack(packed)
            for arrival, packed in zip(state["pending_slots"], state["pending"])
        }
        totals = state["counters"]
        self._sent = int(totals["sent"])
        self._delivered_now = int(totals["delivered_now"])
        self._delivered_late = int(totals["delivered_late"])
        self._dropped_loss = int(totals["dropped_loss"])
        self._dropped_churn = int(totals["dropped_churn"])
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng"]
        self._rng = rng
