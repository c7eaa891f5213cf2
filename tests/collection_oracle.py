"""The per-node collection model, kept as an oracle for the slot kernels.

The package implements each transmission policy once, as a vectorized
slot kernel (``repro.transmission.*_transmit_slot``): a streaming
session calls it per slot through ``SLOT_KERNELS`` and the whole-trace
backends loop it over a trace.  This module keeps the paper's system
(Sec. IV-V) as plain objects instead: one :class:`TransmissionPolicy`
per node deciding through :meth:`LocalNode.observe`, each transmission
a :class:`Measurement` crossing a :class:`MessageChannel`, and a
:class:`CentralStore` applying the staleness rule.
:class:`CollectionSimulation` runs it slot by slot and node by node.
Tests drive the kernels and this model through the same traces and
require identical decisions, stored values, counters and fleet
columns.  Do not optimize this module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.config import TransmissionConfig
from repro.core.types import NodeId, validate_trace
from repro.exceptions import ConfigurationError, DataError, SimulationError
from repro.simulation.collection import CollectionResult
from repro.simulation.fleet import FleetState
from repro.simulation.transport import Channel


@dataclass(frozen=True)
class Measurement:
    """A single measurement produced by one node at one time step.

    Attributes:
        node: Index of the producing node.
        time: Time-slot index at which the value was *measured* (this can
            lag behind the current slot when transmissions are skipped).
        value: The ``d``-dimensional utilization vector, values in [0, 1].
    """

    node: NodeId
    time: int
    value: np.ndarray

    def __post_init__(self) -> None:
        value = np.asarray(self.value, dtype=float)
        if value.ndim != 1:
            raise DataError(
                f"measurement value must be 1-D, got shape {value.shape}"
            )
        object.__setattr__(self, "value", value)

    @property
    def dimension(self) -> int:
        """Number of resource types in this measurement."""
        return int(self.value.shape[0])


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

    def reset(self) -> None:
        """Clear decision history and any internal state."""
        self._decisions.clear()


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
        self._queue_history: List[float] = []

    @property
    def queue_length(self) -> float:
        """Current virtual queue length ``Q_i(t)``."""
        return self._queue

    @property
    def fleet_scalar_state(self) -> float:
        return self._queue

    @property
    def queue_history(self) -> np.ndarray:
        """``Q_i(t)`` sampled before every decision."""
        return np.asarray(self._queue_history, dtype=float)

    def penalty(self, current: np.ndarray, stored: np.ndarray) -> float:
        """The no-transmit penalty ``F_{i,t}(0) = (1/d)·||z − x||²``."""
        cur = np.atleast_1d(np.asarray(current, dtype=float))
        sto = np.atleast_1d(np.asarray(stored, dtype=float))
        if cur.shape != sto.shape:
            raise DataError(
                f"current shape {cur.shape} != stored shape {sto.shape}"
            )
        dim = cur.shape[0]
        return float(np.sum((sto - cur) ** 2) / dim)

    def first_transmission(self) -> None:
        """Charge the forced initial send against the virtual queue."""
        self._queue_history.append(self._queue)
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
        self._queue_history.append(self._queue)
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

    def reset(self) -> None:
        super().reset()
        self._queue = 0.0
        self._time = 0
        self._queue_history.clear()


class UniformTransmissionPolicy(TransmissionPolicy):
    """Fixed-rate transmission at frequency ``B``.

    Args:
        budget: Target frequency ``B`` in (0, 1].
        phase: Initial accumulator value in [0, 1); lets a fleet of nodes
            stagger their transmissions instead of synchronizing.
    """

    def __init__(self, budget: float, *, phase: float = 0.0) -> None:
        super().__init__()
        if not 0.0 < budget <= 1.0:
            raise ConfigurationError(f"budget must be in (0, 1], got {budget}")
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {phase}")
        self.budget = budget
        self.phase = phase
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

    def reset(self) -> None:
        super().reset()
        self._accumulator = self.phase


class DeadbandTransmissionPolicy(TransmissionPolicy):
    """Transmit when ``(1/d)·||z − x||² > delta²``.

    Args:
        delta: Deadband half-width on the per-dimension RMS deviation;
            transmission happens when the stored value drifts beyond it.
    """

    def __init__(self, delta: float) -> None:
        super().__init__()
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.delta = delta

    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        cur = np.atleast_1d(np.asarray(current, dtype=float))
        sto = np.atleast_1d(np.asarray(stored, dtype=float))
        if cur.shape != sto.shape:
            raise DataError(
                f"current shape {cur.shape} != stored shape {sto.shape}"
            )
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
    its column of a :class:`~repro.simulation.fleet.FleetState`.

    Args:
        node_id: The node's index ``i``.
        policy: Its transmission policy.
        fleet: The fleet this node is a view of.  When omitted the node
            owns a private single-node fleet; when given, ``node_id``
            must index one of its columns.
    """

    def __init__(
        self,
        node_id: NodeId,
        policy: TransmissionPolicy,
        *,
        fleet: Optional[FleetState] = None,
    ) -> None:
        self.node_id = node_id
        self.policy = policy
        if fleet is None:
            self.fleet = FleetState(1)
            self._index = 0
        else:
            if not 0 <= node_id < fleet.num_nodes:
                raise SimulationError(
                    f"node id {node_id} outside fleet of {fleet.num_nodes}"
                )
            self.fleet = fleet
            self._index = int(node_id)

    @property
    def stored_value(self) -> np.ndarray:
        """A read-only view of what the central node stores for this node."""
        if not self.fleet.observed[self._index]:
            raise SimulationError(
                f"node {self.node_id} has not observed any measurement yet"
            )
        view = self.fleet.stored[self._index].view()
        view.flags.writeable = False
        return view

    @property
    def time(self) -> int:
        return int(self.fleet.times[self._index])

    def observe(self, value: np.ndarray) -> Optional[Measurement]:
        """Process one slot's fresh measurement.

        The very first measurement is always transmitted and is charged
        against the policy's budget like any other decision.

        Args:
            value: The measurement ``x_{i,t}`` (d-vector).

        Returns:
            The transmitted :class:`Measurement`, or None if the node
            stayed silent this slot.
        """
        x = np.atleast_1d(np.asarray(value, dtype=float))
        if not np.isfinite(x).all():
            raise DataError(f"node {self.node_id}: non-finite measurement")
        fleet, i = self.fleet, self._index
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
            return Measurement(node=self.node_id, time=time, value=x.copy())
        return None

    def reset(self) -> None:
        """Clear this node's fleet columns and the policy's history."""
        fleet, i = self.fleet, self._index
        fleet.observed[i] = False
        fleet.times[i] = 0
        fleet.last_update[i] = -1
        fleet.policy_state[i] = 0.0
        if fleet.stored is not None:
            fleet.stored[i] = 0.0
        self.policy.reset()


class MessageChannel(Channel):
    """A :class:`~repro.simulation.transport.Channel` that carries each
    transmission as a :class:`Measurement` through an inbox.

    Sending only queues a message; the counters advance once per slot
    through ``record_deliveries``, as a streaming session's do.

    Args:
        node_counts: The per-node counter column to adopt.
    """

    def __init__(self, node_counts: np.ndarray) -> None:
        super().__init__(node_counts=node_counts)
        self._inbox: List[Measurement] = []

    def send(self, measurement: Measurement) -> None:
        """Queue one measurement for the controller."""
        self._inbox.append(measurement)

    def drain(self) -> List[Measurement]:
        """Remove and return all pending measurements (one slot's worth)."""
        pending = self._inbox
        self._inbox = []
        return pending

    @property
    def pending(self) -> int:
        return len(self._inbox)


class CentralStore:
    """The controller's per-node measurement store ``z``.

    When node ``i`` does not transmit at slot ``t``, ``z_{i,t}`` keeps
    the most recent previously received value.  The store is a view
    over a :class:`~repro.simulation.fleet.FleetState`: ``values`` is a
    copy of the fleet's ``stored`` matrix and the last-update slots are
    its ``last_update`` column.

    Args:
        num_nodes: Number of local nodes N (omit when ``fleet`` given).
        dimension: Resource dimensionality d (omit when ``fleet`` given
            and already dimensioned).
        fleet: Fleet state to view instead of owning arrays.
    """

    def __init__(
        self,
        num_nodes: Optional[int] = None,
        dimension: Optional[int] = None,
        *,
        fleet: Optional[FleetState] = None,
    ) -> None:
        if fleet is None:
            if num_nodes is None or dimension is None:
                raise SimulationError(
                    "pass num_nodes and dimension, or a fleet"
                )
            if num_nodes < 1 or dimension < 1:
                raise SimulationError(
                    "num_nodes and dimension must be >= 1"
                )
            fleet = FleetState(num_nodes, dimension)
        else:
            if num_nodes is not None and num_nodes != fleet.num_nodes:
                raise SimulationError(
                    f"num_nodes {num_nodes} disagrees with the fleet's "
                    f"{fleet.num_nodes}"
                )
            if dimension is None:
                if fleet.dim is None:
                    raise SimulationError(
                        "the fleet is not dimensioned yet; pass dimension"
                    )
            else:
                fleet.ensure_dim(dimension)
        self.fleet = fleet
        self.num_nodes = fleet.num_nodes
        self.dimension = fleet.dim
        self._time = -1

    @property
    def values(self) -> np.ndarray:
        """Current stored matrix ``z_t`` of shape ``(N, d)`` (a copy)."""
        return self.fleet.stored.copy()

    @property
    def last_update(self) -> np.ndarray:
        """Per-node slot index of the last received measurement."""
        return self.fleet.last_update.copy()

    @property
    def initialized(self) -> bool:
        """True once every node has transmitted at least once."""
        return bool((self.fleet.last_update >= 0).all())

    def staleness(self, now: int) -> np.ndarray:
        """Per-node age ``p`` such that ``z_{i,now} = x_{i,now−p}``."""
        if not self.initialized:
            raise SimulationError(
                "staleness undefined before every node has reported once"
            )
        return now - self.fleet.last_update

    def apply(self, measurements: Iterable[Measurement], now: int) -> None:
        """Ingest one slot's received measurements.

        Args:
            measurements: Messages delivered at slot ``now``.
            now: The current slot index (must be non-decreasing).
        """
        if now < self._time:
            raise SimulationError(
                f"time went backwards: {now} after {self._time}"
            )
        self._time = now
        fleet = self.fleet
        for measurement in measurements:
            i = measurement.node
            if not 0 <= i < self.num_nodes:
                raise SimulationError(f"unknown node id {i}")
            if measurement.value.shape != (self.dimension,):
                raise SimulationError(
                    f"node {i} sent dimension {measurement.value.shape}, "
                    f"store expects ({self.dimension},)"
                )
            fleet.stored[i] = measurement.value
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
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.fleet = FleetState(num_nodes, dim)
        self.channel = MessageChannel(node_counts=self.fleet.message_counts)
        self.nodes = [
            LocalNode(i, policy_factory(i), fleet=self.fleet)
            for i in range(num_nodes)
        ]
        self.store: Optional[CentralStore] = None

    def ingest(
        self, values: np.ndarray, ids: Sequence[int], now: int
    ) -> List[int]:
        """One slot: node ``ids[r]`` observes ``values[r]``, and the store
        applies the slot's messages at slot ``now``.

        Returns:
            The ids of the nodes that transmitted.
        """
        if self.store is None:
            self.store = CentralStore(
                dimension=values.shape[1], fleet=self.fleet
            )
        sent = []
        for row, i in enumerate(ids):
            message = self.nodes[i].observe(values[row])
            if message is not None:
                self.channel.send(message)
                sent.append(i)
        self.channel.record_deliveries(
            np.asarray(sent, dtype=np.int64),
            self.fleet.num_nodes,
            values.shape[1],
        )
        self.store.apply(self.channel.drain(), now=now)
        return sent

    def run(self, trace: np.ndarray) -> CollectionResult:
        """Run a whole trace through every node.

        Args:
            trace: Shape ``(T, N)`` or ``(T, N, d)`` true measurements.

        Returns:
            The :class:`CollectionResult` with stored values per slot
            and the channel's counters.
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
        return CollectionResult(
            stored=stored, decisions=decisions, stats=self.channel.stats
        )


def assert_same_columns(fleet: FleetState, other: FleetState) -> None:
    """Assert two fleets hold identical columns, ``policy_state`` aside
    (a trace-level snapshot does not track it)."""
    for column in (
        "stored", "observed", "times", "last_update", "message_counts"
    ):
        np.testing.assert_array_equal(
            getattr(fleet, column), getattr(other, column), err_msg=column
        )

