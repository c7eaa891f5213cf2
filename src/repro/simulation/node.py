"""Local node model (Sec. IV) as a view over the columnar fleet state.

A :class:`LocalNode` owns a transmission policy and mirrors the value the
central node currently stores for it (``z_{i,t}``) — it can do so without
feedback because it knows exactly what it last transmitted.  Each slot it
observes a fresh measurement and either emits it or stays silent.

Since the columnar refactor the node holds no arrays of its own: it is a
``(fleet, index)`` view whose reads and writes go straight to the
:class:`~repro.simulation.fleet.FleetState` columns (``stored``,
``times``, ``observed``, ``last_update``, ``policy_state``).  A node
constructed standalone — ``LocalNode(i, policy)`` — owns a private
single-node fleet, so the historical API is unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.types import Measurement, NodeId
from repro.exceptions import DataError, SimulationError
from repro.simulation.fleet import FleetState
from repro.transmission.base import TransmissionPolicy


class LocalNode:
    """One machine producing measurements and deciding transmissions.

    Args:
        node_id: The node's index ``i``.
        policy: Its transmission policy (adaptive or uniform).
        fleet: The columnar fleet this node is a view of.  When omitted
            the node owns a private single-node
            :class:`~repro.simulation.fleet.FleetState`; when given,
            ``node_id`` must index one of its columns.
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
        """The node's copy of what the central node currently stores.

        A zero-copy *read-only* view into the fleet's ``stored`` column
        — writes go through :meth:`observe`, never through the mirror
        (mutating the returned array would silently corrupt the shared
        ``z_t``).
        """
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

        The very first measurement is always transmitted (the central node
        has nothing stored yet, so ``z`` would be undefined otherwise) and
        is charged against the policy's budget like any other decision.

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
            # Forced initial transmission; charged to the policy's budget
            # state so frequency accounting includes it.
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

    def sync_batch(self, num_steps: int, stored_value: np.ndarray) -> None:
        """Fast-forward the node past a vectorized batch run.

        The caller is responsible for syncing the policy separately (see
        the policies' ``sync_batch``); this advances the node's clock and
        its mirror of the centrally stored value.  Whole-fleet callers
        should prefer the columnar
        :meth:`FleetState.advance_batch
        <repro.simulation.fleet.FleetState.advance_batch>`, which also
        recovers the exact last-transmit slots.

        Args:
            num_steps: How many slots the batch run covered.
            stored_value: The node's last transmitted value (which equals
                the central store's final ``z_i``).
        """
        fleet, i = self.fleet, self._index
        fleet.times[i] += int(num_steps)
        value = np.atleast_1d(np.asarray(stored_value, dtype=float))
        fleet.ensure_dim(value.shape[0])
        fleet.stored[i] = value
        fleet.observed[i] = True
        fleet.policy_state[i] = self.policy.fleet_scalar_state

    def reset(self) -> None:
        """Clear state (also resets the policy's history)."""
        self.fleet.reset_nodes(self._index)
        self.policy.reset()
