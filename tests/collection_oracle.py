"""The per-node collection model, kept as an oracle for the slot kernels.

The package implements each transmission policy once, as a vectorized
slot kernel (``repro.transmission.*_transmit_slot``): a streaming
session calls it per slot through ``SLOT_KERNELS`` and the whole-trace
backends loop it over a trace (``run_slot_kernel``).  This module keeps
the paper's system (Sec. IV-V) as plain objects instead: one
:class:`TransmissionPolicy` per node deciding through
:meth:`LocalNode.observe`, each slot's messages counted by a
:class:`~repro.simulation.transport.Channel`, and a
:class:`CentralStore` applying the staleness rule.
:class:`CollectionSimulation` runs it slot by slot and node by node.
Tests drive the kernels and this model through the same traces and
require identical decisions, stored values, counters and fleet
columns.  The model assumes valid input (the package's configs and
traces validate it).  Do not optimize this module.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransmissionConfig
from repro.core.types import NodeId, validate_trace
from repro.exceptions import ConfigurationError
from repro.simulation.collection import CollectionResult
from repro.simulation.fleet import FleetState
from repro.simulation.transport import Channel


# ----------------------------------------------------------------------
# Per-node transmission policies (Sec. V-A)
# ----------------------------------------------------------------------


class TransmissionPolicy(abc.ABC):
    """Decides once per slot whether one node transmits.

    Policies see the current measurement ``x_{i,t}`` and the value
    currently stored at the central node ``z_{i,t}`` (which the node
    can track itself, since it knows what it last transmitted).
    """

    def __init__(self) -> None:
        self._decisions: List[int] = []

    @abc.abstractmethod
    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        """Return True if the node should transmit this slot.

        Implementations call :meth:`_record` with the decision.

        Args:
            current: The node's fresh measurement ``x_{i,t}`` (d-vector).
            stored: The stale value ``z_{i,t}`` the central node would keep
                if no transmission happens (d-vector).
        """

    def first_transmission(self) -> None:
        """Account for the forced initial transmission.

        The very first measurement of a node is always sent (the central
        node has no value for it yet).  Policies override this to charge
        that send against their budget state.
        """
        self._record(True)

    def _record(self, transmitted: bool) -> None:
        self._decisions.append(1 if transmitted else 0)

    @property
    def fleet_scalar_state(self) -> float:
        """The policy's scalar accumulator, as the kernels keep it in the
        ``FleetState.policy_state`` column (the virtual queue for the
        adaptive policy, the rate accumulator for uniform sampling; 0.0
        for stateless policies).
        """
        return 0.0

    @property
    def decisions(self) -> np.ndarray:
        """Binary history of decisions, one entry per slot."""
        return np.asarray(self._decisions, dtype=int)

    @property
    def empirical_frequency(self) -> float:
        """Fraction of slots in which the node transmitted so far."""
        if not self._decisions:
            return 0.0
        return float(np.mean(self._decisions))


class AdaptiveTransmissionPolicy(TransmissionPolicy):
    """Drift-plus-penalty transmission controller for one node.

    Args:
        config: Budget ``B`` and control parameters ``V0``, ``γ``.
    """

    def __init__(self, config: TransmissionConfig = TransmissionConfig()) -> None:
        super().__init__()
        self.config = config
        self._queue = 0.0
        self._time = 0

    @property
    def queue_length(self) -> float:
        """Current virtual queue length ``Q_i(t)``."""
        return self._queue

    @property
    def fleet_scalar_state(self) -> float:
        return self._queue

    def penalty(self, current: np.ndarray, stored: np.ndarray) -> float:
        """The no-transmit penalty ``F_{i,t}(0) = (1/d)·||z − x||²``."""
        cur = np.atleast_1d(np.asarray(current, dtype=float))
        sto = np.atleast_1d(np.asarray(stored, dtype=float))
        return float(np.sum((sto - cur) ** 2) / cur.shape[0])

    def first_transmission(self) -> None:
        """Charge the forced initial send against the virtual queue."""
        self._queue += 1.0 - self.config.budget
        self._time += 1
        self._record(True)

    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        """Evaluate the drift-plus-penalty objective for β ∈ {0, 1}.

        Objective values:
            β = 0:  V_t · F_{i,t}(0) + Q(t) · (0 − B)
            β = 1:  V_t · 0          + Q(t) · (1 − B)

        Transmit when the β = 1 objective is strictly smaller.
        """
        v_t = self.config.v0 * (self._time + 1) ** self.config.gamma
        budget = self.config.budget
        objective_skip = v_t * self.penalty(current, stored) - self._queue * budget
        objective_send = self._queue * (1.0 - budget)
        transmit = objective_send < objective_skip
        self._queue += (1.0 if transmit else 0.0) - budget
        # The queue is deliberately left signed: negative values are
        # accumulated *credit* from quiet periods, which is what lets the
        # long-run frequency meet the budget with equality (the paper's
        # Fig. 3) instead of quantizing to 1/ceil(1/B).  Clipping at zero
        # (Neely's inequality-constraint queue) would only enforce <= B.
        self._time += 1
        self._record(transmit)
        return transmit


class UniformTransmissionPolicy(TransmissionPolicy):
    """Fixed-rate transmission at frequency ``B``.

    Args:
        budget: Target frequency ``B`` in (0, 1].
        phase: Initial accumulator value in [0, 1); lets a fleet of nodes
            stagger their transmissions instead of synchronizing.
    """

    def __init__(self, budget: float, *, phase: float = 0.0) -> None:
        super().__init__()
        self.budget = budget
        self._accumulator = phase

    @property
    def fleet_scalar_state(self) -> float:
        return self._accumulator

    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        """Transmit whenever the rate accumulator crosses 1.

        ``current``/``stored`` are ignored — this policy is oblivious to
        the data, which is exactly what Fig. 4 contrasts against.
        """
        self._accumulator += self.budget
        transmit = self._accumulator >= 1.0
        if transmit:
            self._accumulator -= 1.0
        self._record(transmit)
        return transmit


class DeadbandTransmissionPolicy(TransmissionPolicy):
    """Transmit when ``(1/d)·||z − x||² > delta²``.

    Args:
        delta: Deadband half-width on the per-dimension RMS deviation;
            transmission happens when the stored value drifts beyond it.
    """

    def __init__(self, delta: float) -> None:
        super().__init__()
        self.delta = delta

    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        cur = np.atleast_1d(np.asarray(current, dtype=float))
        sto = np.atleast_1d(np.asarray(stored, dtype=float))
        deviation = float(np.mean((sto - cur) ** 2))
        transmit = deviation > self.delta**2
        self._record(transmit)
        return transmit


class PerfectTransmissionPolicy(TransmissionPolicy):
    """Transmit unconditionally every slot (stateless)."""

    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        self._record(True)
        return True


#: Policy name → builder ``(transmission_config) -> policy``, one per
#: built-in ``SLOT_KERNELS`` entry, configured as the kernel is.
POLICIES = {
    "adaptive": AdaptiveTransmissionPolicy,
    "uniform": lambda config: UniformTransmissionPolicy(config.budget),
    "deadband": lambda config: DeadbandTransmissionPolicy(
        config.deadband_delta
    ),
    "perfect": lambda config: PerfectTransmissionPolicy(),
}


# ----------------------------------------------------------------------
# Nodes, channel and central store (Sec. IV)
# ----------------------------------------------------------------------


class LocalNode:
    """One machine producing measurements and deciding transmissions.

    The node mirrors the value the central node stores for it
    (``z_{i,t}``) without feedback, because it knows what it last
    transmitted.  It holds no arrays of its own: reads and writes go to
    column ``node_id`` of a :class:`~repro.simulation.fleet.FleetState`.

    Args:
        node_id: The node's index ``i``.
        policy: Its transmission policy.
        fleet: The fleet this node is a view of.
    """

    def __init__(
        self, node_id: NodeId, policy: TransmissionPolicy, fleet: FleetState
    ) -> None:
        self.node_id = node_id
        self.policy = policy
        self.fleet = fleet

    @property
    def stored_value(self) -> np.ndarray:
        """A read-only view of what the central node stores for this node."""
        view = self.fleet.stored[self.node_id].view()
        view.flags.writeable = False
        return view

    @property
    def time(self) -> int:
        return int(self.fleet.times[self.node_id])

    def observe(self, value: np.ndarray) -> Optional[np.ndarray]:
        """Process one slot's fresh measurement.

        The very first measurement is always transmitted and is charged
        against the policy's budget like any other decision.

        Args:
            value: The measurement ``x_{i,t}`` (d-vector).

        Returns:
            A copy of the transmitted value, or None if the node stayed
            silent this slot.
        """
        x = np.atleast_1d(np.asarray(value, dtype=float))
        fleet, i = self.fleet, self.node_id
        if not fleet.observed[i]:
            self.policy.first_transmission()
            transmit = True
        else:
            transmit = self.policy.decide(x, fleet.stored[i])
        time = int(fleet.times[i])
        fleet.times[i] += 1
        fleet.policy_state[i] = self.policy.fleet_scalar_state
        if transmit:
            fleet.ensure_dim(x.shape[0])
            fleet.stored[i] = x
            fleet.observed[i] = True
            fleet.last_update[i] = time
            return x.copy()
        return None


class CentralStore:
    """The controller's per-node measurement store ``z``.

    When node ``i`` does not transmit at slot ``t``, ``z_{i,t}`` keeps
    the most recent previously received value.  The store is a view
    over a :class:`~repro.simulation.fleet.FleetState`: ``values`` is a
    copy of the fleet's ``stored`` matrix and the last-update slots are
    its ``last_update`` column.

    Args:
        fleet: Fleet state to view.
    """

    def __init__(self, fleet: FleetState) -> None:
        self.fleet = fleet

    @property
    def values(self) -> np.ndarray:
        """Current stored matrix ``z_t`` of shape ``(N, d)`` (a copy)."""
        return self.fleet.stored.copy()

    @property
    def last_update(self) -> np.ndarray:
        """Per-node slot index of the last received measurement."""
        return self.fleet.last_update.copy()

    def apply(
        self, messages: Iterable[Tuple[NodeId, np.ndarray]], now: int
    ) -> None:
        """Ingest one slot's received ``(node, value)`` messages at slot
        ``now``."""
        fleet = self.fleet
        for i, value in messages:
            fleet.stored[i] = value
            fleet.observed[i] = True
            fleet.last_update[i] = now


class CollectionSimulation:
    """Slot-by-slot, node-by-node collection over one shared fleet.

    The nodes, the channel's counters and the store all read and write
    the same :class:`~repro.simulation.fleet.FleetState` columns, so a
    test can compare those columns with a session's.

    Args:
        num_nodes: Number of local nodes.
        policy_factory: Called with each node id; returns that node's
            transmission policy (lets callers stagger phases, vary
            budgets per node, etc.).
        dim: Resource dimensionality, when known before the first slot.
    """

    def __init__(
        self,
        num_nodes: int,
        policy_factory: Callable[[int], TransmissionPolicy],
        dim: Optional[int] = None,
    ) -> None:
        self.fleet = FleetState(num_nodes, dim)
        self.channel = Channel(node_counts=self.fleet.message_counts)
        self.nodes = [
            LocalNode(i, policy_factory(i), self.fleet)
            for i in range(num_nodes)
        ]
        self.store = CentralStore(self.fleet)

    def ingest(
        self, values: np.ndarray, ids: Sequence[int], now: int
    ) -> List[int]:
        """One slot: node ``ids[r]`` observes ``values[r]``, and the store
        applies the slot's messages at slot ``now``.

        Returns:
            The ids of the nodes that transmitted.
        """
        messages = []
        for row, i in enumerate(ids):
            value = self.nodes[i].observe(values[row])
            if value is not None:
                messages.append((i, value))
        sent = [i for i, _ in messages]
        self.channel.record_deliveries(
            np.asarray(sent, dtype=np.int64),
            self.fleet.num_nodes,
            values.shape[1],
        )
        self.store.apply(messages, now=now)
        return sent

    def run(self, trace: np.ndarray) -> CollectionResult:
        """Run a whole trace through every node.

        Args:
            trace: Shape ``(T, N)`` or ``(T, N, d)`` true measurements.

        Returns:
            The :class:`CollectionResult` with stored values and
            decisions per slot; the counters are on :attr:`channel`.
        """
        data = validate_trace(trace)
        num_steps, num_nodes, _ = data.shape
        if num_nodes != len(self.nodes):
            raise ConfigurationError(
                f"trace has {num_nodes} nodes, simulation has {len(self.nodes)}"
            )
        stored = np.empty_like(data)
        decisions = np.zeros((num_steps, num_nodes), dtype=int)
        # Apply on the fleet clock (nodes advance in lock-step here), so
        # a second run continues the first one's time base.
        base = int(self.fleet.times.max())
        for t in range(num_steps):
            sent = self.ingest(data[t], range(num_nodes), base + t)
            decisions[t, sent] = 1
            stored[t] = self.store.values
        return CollectionResult(stored=stored, decisions=decisions)


def assert_same_columns(fleet: FleetState, other: FleetState) -> None:
    """Assert two fleets hold identical columns, ``policy_state`` aside
    (a trace-level snapshot does not track it)."""
    for column in (
        "stored", "observed", "times", "last_update", "message_counts"
    ):
        np.testing.assert_array_equal(
            getattr(fleet, column), getattr(other, column), err_msg=column
        )

