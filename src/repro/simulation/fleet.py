"""Columnar fleet state: one structure-of-arrays for the whole fleet.

Scaling the paper's system to very large fleets makes an object graph
itself the bottleneck: one Python object per node, a dict entry per
node in the transport counters, and per-node attribute chasing on every
slot.  :class:`FleetState` holds the fleet as a single
structure-of-arrays instead — the stored values ``z_t`` as one
``(N, d)`` matrix plus per-node clocks, last-transmit slots, message
counters and policy accumulators as flat numpy columns — that every
layer (the slot kernels, transport accounting, the pipeline's
forecasts) reads and writes directly.  A streaming session owns one
live fleet; ``Engine.run`` snapshots the fleet a whole-trace run
implies (:meth:`FleetState.from_run`).  Sharded execution
(``Engine.run(trace, shards=K)``) runs collection over contiguous
column slices, and :func:`merge_collection_shards` reassembles them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError


class FleetState:
    """Structure-of-arrays state for a fleet of ``N`` nodes.

    Columns (all length ``N`` unless noted):

    * ``stored`` — ``(N, d)`` float matrix of the centrally stored
      values ``z_t`` (the nodes' mirrors coincide with the central
      store's copy by construction, so it is held exactly once).
      Allocated lazily on the first transmission when ``dim`` is not
      known up front.
    * ``observed`` — bool, True once the node's forced first
      transmission happened (``z_i`` is defined).
    * ``times`` — int64 per-node slot clocks.
    * ``last_update`` — int64 slot of each node's last transmission
      (``-1`` before the first one); drives the staleness rule.
    * ``message_counts`` — int64 per-node delivered-message counters.
      This array *backs* the channel's
      :class:`~repro.simulation.transport.TransportStats` — counters
      advance only through the channel, never here.
    * ``policy_state`` — float per-node scalar policy accumulator
      (Lyapunov virtual queue ``Q_i(t)`` for the adaptive policy, the
      error-diffusion accumulator for uniform sampling).  The slot
      kernels maintain it in a live fleet; NaN in trace-level
      snapshots (:meth:`from_run`), where backends do not expose it.

    Args:
        num_nodes: Fleet size ``N``.
        dim: Resource dimensionality ``d``; omit to infer it from the
            first stored value.
        dtype: Floating-point dtype of the ``stored`` and
            ``policy_state`` columns (default float64).  float32 halves
            the fleet's resident footprint — the difference between
            fitting N=1M on one box or not.
    """

    def __init__(
        self,
        num_nodes: int,
        dim: Optional[int] = None,
        dtype: "np.typing.DTypeLike" = np.float64,
    ) -> None:
        if num_nodes < 1:
            raise SimulationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise SimulationError(
                f"fleet dtype must be floating point, got {self.dtype}"
            )
        self._dim: Optional[int] = None
        self.stored: Optional[np.ndarray] = None
        self.observed = np.zeros(self.num_nodes, dtype=bool)
        self.times = np.zeros(self.num_nodes, dtype=np.int64)
        self.last_update = np.full(self.num_nodes, -1, dtype=np.int64)
        self.message_counts = np.zeros(self.num_nodes, dtype=np.int64)
        self.policy_state = np.zeros(self.num_nodes, dtype=self.dtype)
        if dim is not None:
            self.ensure_dim(dim)

    @property
    def dim(self) -> Optional[int]:
        """Resource dimensionality ``d`` (None until first allocation)."""
        return self._dim

    def ensure_dim(self, dim: int) -> np.ndarray:
        """Allocate (or check) the ``(N, d)`` stored matrix.

        The dimensionality is fixed for the fleet's lifetime: a second
        call with a different ``d`` raises, which is what turns silent
        shape drift between runs into a loud error.
        """
        dim = int(dim)
        if self._dim is None:
            if dim < 1:
                raise SimulationError(f"dimension must be >= 1, got {dim}")
            self._dim = dim
            self.stored = np.zeros((self.num_nodes, dim), dtype=self.dtype)
        elif self._dim != dim:
            raise SimulationError(
                f"fleet dimensionality is fixed at d={self._dim}, "
                f"got a d={dim} value"
            )
        return self.stored

    # ------------------------------------------------------------------
    # Fleet churn (geometry changes)
    # ------------------------------------------------------------------

    def grow(self, count: int, *, clock: int = 0) -> np.ndarray:
        """Append ``count`` fresh nodes to the fleet.

        Every column is reallocated with the new geometry; the new
        nodes start unobserved (``last_update = -1``, zero stored value
        and policy state) exactly like slot-0 nodes, so their forced
        first transmission happens on their first slot.  Holders of raw
        column references must re-read them afterwards —
        :class:`~repro.simulation.transport.PerNodeMessages` reads
        through its stats dynamically and stays live, but fleet-backed
        :class:`~repro.simulation.transport.TransportStats` must
        :meth:`~repro.simulation.transport.TransportStats.adopt_column`
        the new ``message_counts``.

        Args:
            count: How many nodes join (>= 1).
            clock: Initial per-node slot clock of the joining nodes —
                pass the session's current frontier so all live nodes
                share one clock.

        Returns:
            The new nodes' indices, ``[N_old, N_old + count)``.
        """
        count = int(count)
        if count < 1:
            raise SimulationError(f"grow count must be >= 1, got {count}")
        old = self.num_nodes
        self.num_nodes = old + count
        self.observed = np.concatenate(
            [self.observed, np.zeros(count, dtype=bool)]
        )
        self.times = np.concatenate(
            [self.times, np.full(count, int(clock), dtype=np.int64)]
        )
        self.last_update = np.concatenate(
            [self.last_update, np.full(count, -1, dtype=np.int64)]
        )
        self.message_counts = np.concatenate(
            [self.message_counts, np.zeros(count, dtype=np.int64)]
        )
        self.policy_state = np.concatenate(
            [self.policy_state, np.zeros(count, dtype=self.dtype)]
        )
        if self.stored is not None:
            self.stored = np.concatenate(
                [self.stored, np.zeros((count, self._dim), dtype=self.dtype)]
            )
        return np.arange(old, self.num_nodes, dtype=np.int64)

    def compact(self, keep: Sequence[int]) -> None:
        """Shrink the fleet to the ``keep`` nodes (in ascending order).

        Surviving nodes are renumbered ``0..len(keep)-1`` in their
        original relative order, so aligned per-node histories can be
        gathered with the same index array.  Columns are reallocated;
        see :meth:`grow` for the reference-rebinding rules.

        Args:
            keep: Strictly increasing indices of the surviving nodes
                (at least one).
        """
        index = np.asarray(keep, dtype=np.int64).ravel()
        if index.size < 1:
            raise SimulationError("compact must keep at least one node")
        if index.size > 1 and not (np.diff(index) > 0).all():
            raise SimulationError(
                "keep indices must be strictly increasing (survivors "
                "keep their relative order)"
            )
        if index[0] < 0 or index[-1] >= self.num_nodes:
            raise SimulationError(
                f"keep indices outside [0, {self.num_nodes})"
            )
        self.num_nodes = int(index.size)
        self.observed = self.observed[index].copy()
        self.times = self.times[index].copy()
        self.last_update = self.last_update[index].copy()
        self.message_counts = self.message_counts[index].copy()
        self.policy_state = self.policy_state[index].copy()
        if self.stored is not None:
            self.stored = self.stored[index].copy()

    # ------------------------------------------------------------------
    # Checkpoint state contract
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Serializable copies of every fleet column.

        Together with :meth:`set_state` this is the fleet's checkpoint
        contract: restoring the returned dict into a fresh
        ``FleetState(num_nodes)`` reproduces the columns bit-for-bit.
        """
        return {
            "num_nodes": self.num_nodes,
            "dim": self._dim,
            "dtype": self.dtype.name,
            "stored": None if self.stored is None else self.stored.copy(),
            "observed": self.observed.copy(),
            "times": self.times.copy(),
            "last_update": self.last_update.copy(),
            "message_counts": self.message_counts.copy(),
            "policy_state": self.policy_state.copy(),
        }

    def set_state(self, state: dict) -> None:
        """Restore columns captured by :meth:`get_state`, *in place*.

        Writes into the existing column arrays (never rebinding them),
        so shared references — such as the channel's counter column —
        keep aliasing the fleet after a restore.
        """
        if int(state["num_nodes"]) != self.num_nodes:
            raise SimulationError(
                f"state holds {state['num_nodes']} nodes, fleet has "
                f"{self.num_nodes}"
            )
        state_dtype = state.get("dtype")
        if state_dtype is not None and np.dtype(state_dtype) != self.dtype:
            raise SimulationError(
                f"state columns are {state_dtype}, fleet is {self.dtype} "
                "(restoring across dtypes would silently cast)"
            )
        if state["dim"] is not None:
            self.ensure_dim(int(state["dim"]))
            self.stored[...] = state["stored"]
        elif self._dim is not None:
            raise SimulationError(
                f"state is undimensioned but the fleet is fixed at "
                f"d={self._dim}"
            )
        self.observed[...] = state["observed"]
        self.times[...] = state["times"]
        self.last_update[...] = state["last_update"]
        self.message_counts[...] = state["message_counts"]
        self.policy_state[...] = state["policy_state"]

    def adopt_state(self, state: dict) -> None:
        """Rebind the columns to ``state``'s arrays, *without copying*.

        The zero-copy counterpart of :meth:`set_state` for resuming from
        an mmap-backed checkpoint: the fleet's columns become the
        state's arrays themselves (copy-on-write views of the archive
        for mmap loads), so a resume at N=1M never materializes a
        second set of columns.  Unlike :meth:`set_state`, every holder
        of the *old* column references is stale afterwards — callers
        (the session's restore path) must re-adopt the channel's counter
        column.
        """
        if int(state["num_nodes"]) != self.num_nodes:
            raise SimulationError(
                f"state holds {state['num_nodes']} nodes, fleet has "
                f"{self.num_nodes}"
            )
        state_dtype = state.get("dtype")
        if state_dtype is not None and np.dtype(state_dtype) != self.dtype:
            raise SimulationError(
                f"state columns are {state_dtype}, fleet is {self.dtype} "
                "(adopting across dtypes would silently cast)"
            )
        if state["dim"] is not None:
            dim = int(state["dim"])
            if self._dim is not None and self._dim != dim:
                raise SimulationError(
                    f"fleet dimensionality is fixed at d={self._dim}, "
                    f"state has d={dim}"
                )
            stored = state["stored"]
            if stored.dtype != self.dtype:
                raise SimulationError(
                    f"stored column is {stored.dtype}, fleet is {self.dtype}"
                )
            self._dim = dim
            self.stored = stored
        elif self._dim is not None:
            raise SimulationError(
                f"state is undimensioned but the fleet is fixed at "
                f"d={self._dim}"
            )
        self.observed = np.asarray(state["observed"], dtype=bool)
        self.times = np.asarray(state["times"], dtype=np.int64)
        self.last_update = np.asarray(state["last_update"], dtype=np.int64)
        self.message_counts = np.asarray(
            state["message_counts"], dtype=np.int64
        )
        self.policy_state = np.asarray(
            state["policy_state"], dtype=self.dtype
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        stored: np.ndarray,
        decisions: np.ndarray,
    ) -> "FleetState":
        """Snapshot the fleet state a whole-trace collection run implies.

        Clocks read the trace length, and each node that transmitted
        holds its last value and slot.  The message counters are the
        per-node decision sums (transport stats then adopt this column
        — see :meth:`TransportStats.from_node_counts
        <repro.simulation.transport.TransportStats.from_node_counts>` —
        so fleet and transport stay one array).  Policy accumulators are
        not recoverable from a trace-level result (backends do not
        expose them), so the ``policy_state`` column is NaN — explicitly
        untracked, never stale defaults.

        Args:
            stored: ``(T, N, d)`` stored-value trajectory.
            decisions: ``(T, N)`` transmission decisions.
        """
        num_steps, num_nodes, dim = stored.shape
        dtype = stored.dtype if stored.dtype.kind == "f" else np.float64
        fleet = cls(num_nodes, dim, dtype=dtype)
        sent = np.asarray(decisions, dtype=bool)
        sent_any = sent.any(axis=0)
        # Index of each node's last 1 in the decision matrix.
        last = num_steps - 1 - np.argmax(sent[::-1], axis=0)
        fleet.last_update[sent_any] = last[sent_any]
        fleet.times.fill(num_steps)
        fleet.stored[sent_any] = stored[-1][sent_any]
        fleet.observed[...] = sent_any
        fleet.message_counts = decisions.sum(axis=0).astype(np.int64)
        fleet.policy_state.fill(np.nan)
        return fleet


def shard_slices(num_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` node ranges partitioning a fleet.

    Sizes differ by at most one (``np.array_split`` semantics), so
    shard boundaries are deterministic for a given ``(N, K)``.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if shards > num_nodes:
        raise SimulationError(
            f"cannot split {num_nodes} nodes into {shards} shards"
        )
    base, extra = divmod(num_nodes, shards)
    bounds = [0]
    for k in range(shards):
        bounds.append(bounds[-1] + base + (1 if k < extra else 0))
    return [(bounds[k], bounds[k + 1]) for k in range(shards)]


def merge_collection_shards(
    shard_results: Sequence,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reassemble per-shard collection outputs into global arrays.

    Shards hold contiguous node ranges in order, so the merge is one
    concatenation along the node axis per array — the resulting
    ``stored`` matrix is bit-identical to a single-shard run because
    every backend's recurrence is independent per node column.  A lone
    shard's arrays are returned as they are, without a copy.

    Args:
        shard_results: Per-shard ``(stored, decisions)`` pairs (or
            objects with those attributes) in shard order.

    Returns:
        ``(stored, decisions)`` for the whole fleet.
    """
    stored_parts, decision_parts = [], []
    for result in shard_results:
        if isinstance(result, tuple):
            stored, decisions = result
        else:
            stored, decisions = result.stored, result.decisions
        stored_parts.append(stored)
        decision_parts.append(decisions)
    if len(stored_parts) == 1:
        return stored_parts[0], decision_parts[0]
    return (
        np.concatenate(stored_parts, axis=1),
        np.concatenate(decision_parts, axis=1),
    )


__all__ = ["FleetState", "shard_slices", "merge_collection_shards"]
