"""Transport accounting between local nodes and the central node.

The paper's budget ``B`` is "proportional to the required communication
bandwidth" (Sec. II), so the simulation tracks exactly how many messages
and payload bytes cross the network.  This is the piece an operator would
point at a real message bus; here it is an in-process channel with
counters.

Counters are columnar: the per-node message counts live in one int64
array (shareable with :attr:`FleetState.message_counts
<repro.simulation.fleet.FleetState.message_counts>` so the fleet and the
transport layer are literally the same memory), exposed through the
read-only dict-like :class:`PerNodeMessages` view for the historical
``stats.per_node_messages[i]`` API.  All counters advance in exactly one
place — :meth:`Channel.record_deliveries` — and the public fields are
read-only properties, so double counting (e.g. a collection engine also
bumping the totals) is an ``AttributeError`` instead of a silent
corruption.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

import numpy as np

from repro.exceptions import SimulationError


class PerNodeMessages(Mapping):
    """Read-only dict-like view over the per-node message-count column.

    Behaves like the ``{node_id: count}`` dict it replaces: only nodes
    with at least one delivered message appear as keys, it compares
    equal to plain dicts with the same contents, and — like that dict —
    it is *live*: it reads the owning stats' current column on every
    access (not a snapshot), so holding the mapping across sends stays
    correct even when fleet churn reallocates the column (see
    :meth:`TransportStats.adopt_column`).
    """

    def __init__(self, stats: "TransportStats") -> None:
        self._stats = stats

    @property
    def _counts(self) -> np.ndarray:
        return self._stats._node_counts

    def __getitem__(self, node: int) -> int:
        if not (isinstance(node, (int, np.integer)) and
                0 <= node < self._counts.shape[0]):
            raise KeyError(node)
        count = int(self._counts[node])
        if count == 0:
            raise KeyError(node)
        return count

    def __iter__(self) -> Iterator[int]:
        return (int(i) for i in np.flatnonzero(self._counts))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._counts))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PerNodeMessages, dict)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def as_array(self) -> np.ndarray:
        """The backing int64 count column (a copy), shape ``(N,)``."""
        return self._counts.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class TransportStats:
    """Aggregate transport counters (read-only outside the channel).

    Attributes:
        messages: Total messages delivered.
        payload_floats: Total float values carried (d per message).
        per_node_messages: Message count per node id (dict-like view
            over the int64 count column).

    Args:
        node_counts: The int64 per-node counter column, adopted
            *without copying* — a fleet's ``message_counts`` column, so
            transport and fleet share one array.  Its length bounds the
            node ids the stats can count.
        floats_per_message: Payload floats each already-counted message
            carried (``d``).  Required when adopting an array with
            non-zero counts, so ``messages`` and ``payload_floats``
            stay mutually consistent.
    """

    def __init__(
        self,
        node_counts: np.ndarray,
        *,
        floats_per_message: Optional[int] = None,
    ) -> None:
        if node_counts.dtype != np.int64:
            raise SimulationError(
                f"node_counts must be int64, got {node_counts.dtype}"
            )
        self._node_counts = node_counts
        self._messages = int(node_counts.sum())
        self._payload_floats = 0
        # Messages once counted for nodes whose counters have since left
        # the column (fleet compaction): totals stay cumulative, so
        # ``messages == column.sum() + retired`` is the invariant.
        self._retired = 0
        if self._messages:
            if floats_per_message is None:
                raise SimulationError(
                    "adopting non-zero counters needs "
                    "floats_per_message (use "
                    "TransportStats.from_node_counts) so payload "
                    "accounting stays consistent"
                )
            self._payload_floats = self._messages * int(floats_per_message)

    @property
    def messages(self) -> int:
        """Total messages delivered (advances only via the channel)."""
        return self._messages

    @property
    def payload_floats(self) -> int:
        """Total float values carried (advances only via the channel)."""
        return self._payload_floats

    @property
    def per_node_messages(self) -> PerNodeMessages:
        """Dict-like per-node message counts (a live view)."""
        return PerNodeMessages(self)

    @property
    def retired_messages(self) -> int:
        """Messages counted for nodes no longer in the counter column.

        Non-zero only after fleet compaction (see :meth:`adopt_column`):
        the departed nodes' deliveries stay in the cumulative totals but
        have no per-node counter anymore.
        """
        return self._retired

    def payload_bytes(self, bytes_per_float: int = 8) -> int:
        """Payload volume assuming ``bytes_per_float`` per value."""
        return self._payload_floats * bytes_per_float

    # -- mutation: called by Channel (and shard reduction) only ---------

    def _count_batch(
        self, per_node: np.ndarray, floats_per_message: int
    ) -> None:
        """Account a whole batch of deliveries at once (channel-internal)."""
        per_node = np.asarray(per_node, dtype=np.int64)
        if per_node.shape[0] > self._node_counts.shape[0]:
            raise SimulationError(
                f"node id {per_node.shape[0] - 1} outside the fleet's "
                f"{self._node_counts.shape[0]} counters"
            )
        messages = int(per_node.sum())
        self._messages += messages
        self._payload_floats += messages * int(floats_per_message)
        self._node_counts[: per_node.shape[0]] += per_node

    # -- geometry changes (fleet churn) ---------------------------------

    def adopt_column(self, node_counts: np.ndarray) -> None:
        """Re-adopt the fleet's counter column after a geometry change.

        Fleet churn (:meth:`FleetState.grow
        <repro.simulation.fleet.FleetState.grow>` /
        :meth:`~repro.simulation.fleet.FleetState.compact`) reallocates
        ``message_counts``; the stats must follow the new array so
        fleet and transport stay one memory.  Cumulative totals are
        preserved: counts that left the column (departed nodes) move
        into :attr:`retired_messages`, keeping the invariant
        ``messages == column.sum() + retired``.

        Args:
            node_counts: The fleet's new int64 ``message_counts`` column.
        """
        if node_counts.dtype != np.int64:
            raise SimulationError(
                f"node_counts must be int64, got {node_counts.dtype}"
            )
        live_total = self._messages - self._retired
        new_total = int(node_counts.sum())
        if new_total > live_total:
            raise SimulationError(
                f"new counter column sums to {new_total} messages but "
                f"only {live_total} are live; adopt the fleet's own "
                "column after grow/compact, not an unrelated array"
            )
        self._retired += live_total - new_total
        # repro: noqa STATE-003(the column belongs to the fleet; FleetState's state carries it)
        self._node_counts = node_counts

    def rebind_column(self, node_counts: np.ndarray) -> None:
        """Point the stats at a *restored* counter column.

        Unlike :meth:`adopt_column` (churn: cumulative totals preserved,
        counts can only leave the column), this accompanies a whole-state
        restore that replaced the fleet's columns wholesale — the
        zero-copy checkpoint-adoption path, where the column is the
        checkpoint's own array.  Only the binding changes here; callers
        must follow up with :meth:`set_state`, which re-validates the
        totals against the new column, so a rebind without a consistent
        restore still fails loudly.

        Args:
            node_counts: The fleet's adopted int64 ``message_counts``
                column.
        """
        if node_counts.dtype != np.int64:
            raise SimulationError(
                f"node_counts must be int64, got {node_counts.dtype}"
            )
        self._node_counts = node_counts

    # -- checkpoint state contract --------------------------------------

    def get_state(self) -> dict:
        """Serializable aggregate counters.

        The per-node column is *not* included: it is the fleet's
        ``message_counts`` column, which the fleet's own state carries
        (one array, one owner).
        """
        return {
            "messages": self._messages,
            "payload_floats": self._payload_floats,
            "retired_messages": self._retired,
        }

    def set_state(self, state: dict) -> None:
        """Restore counters captured by :meth:`get_state`.

        The node-count column must already hold the restored fleet state
        (restore the fleet first); the totals are validated against it
        so a torn restore fails loudly.
        """
        messages = int(state["messages"])
        retired = int(state.get("retired_messages", 0))
        column_total = int(self._node_counts.sum())
        if messages != column_total + retired:
            raise SimulationError(
                f"transport state claims {messages} messages "
                f"({retired} retired) but the fleet's counter column "
                f"sums to {column_total}; restore the fleet state "
                "first"
            )
        self._messages = messages
        self._retired = retired
        self._payload_floats = int(state["payload_floats"])

    # -- shard reduction ------------------------------------------------

    @classmethod
    def from_node_counts(
        cls, node_counts: np.ndarray, floats_per_message: int
    ) -> "TransportStats":
        """Counters over an existing per-node count column (adopted,
        not copied — pass a fleet's ``message_counts`` to share it).

        This is how sharded runs reduce transport provenance: the merge
        sums each shard's decisions into the global fleet column and
        derives the totals from it here.

        Args:
            node_counts: int64 delivered-message counts, shape ``(N,)``.
            floats_per_message: Payload floats per message (``d``).
        """
        return cls(
            node_counts=node_counts, floats_per_message=floats_per_message
        )


class Channel:
    """In-process node → controller channel with delivery accounting.

    The single place transport counters advance: :meth:`record_deliveries`
    counts one slot's delivered messages.

    Args:
        node_counts: The fleet's per-node counter column to adopt (see
            :class:`TransportStats`).
    """

    def __init__(self, node_counts: np.ndarray) -> None:
        self.stats = TransportStats(node_counts=node_counts)

    def record_deliveries(
        self,
        delivered_ids: np.ndarray,
        num_nodes: int,
        floats_per_message: int,
    ) -> np.ndarray:
        """Account one slot's *delivered* messages by node id.

        The single choke point between "these messages reached the
        controller" and the counters: callers hand over the delivered
        node ids (at most one message per node per slot) and this
        method builds the per-node count vector and advances the stats
        exactly once.  Link models drop or delay messages *before* this
        call, so a dropped message can never be counted and a delayed
        one is counted only when its late arrival is actually applied.

        Args:
            delivered_ids: Node ids whose message was delivered this
                slot (unique).
            num_nodes: Fleet size ``N`` (the count vector's length).
            floats_per_message: Payload floats per message (``d``).

        Returns:
            The int64 ``(N,)`` per-node delivered-message counts.
        """
        counts = np.zeros(int(num_nodes), dtype=np.int64)
        counts[delivered_ids] = 1
        self.stats._count_batch(counts, floats_per_message)
        return counts
