"""Abstract interface for per-node transmission policies (Sec. V-A).

A transmission policy runs at each local node and decides, once per time
slot, whether to send the node's current measurement to the central node.
Policies see the current measurement ``x_{i,t}`` and the value currently
stored at the central node ``z_{i,t}`` (which the node can track itself,
since it knows what it last transmitted).
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np


class TransmissionPolicy(abc.ABC):
    """Decides per slot whether a node transmits its measurement."""

    def __init__(self) -> None:
        self._decisions: List[int] = []

    @abc.abstractmethod
    def decide(self, current: np.ndarray, stored: np.ndarray) -> bool:
        """Return True if the node should transmit this slot.

        Implementations must call :meth:`_record` with the decision so the
        empirical frequency statistics stay consistent.

        Args:
            current: The node's fresh measurement ``x_{i,t}`` (d-vector).
            stored: The stale value ``z_{i,t}`` the central node would keep
                if no transmission happens (d-vector).
        """

    def first_transmission(self) -> None:
        """Account for a forced initial transmission.

        The very first measurement of a node must always be sent (the
        central node has no value for it yet).  Policies override this to
        charge that send against their budget state; the default simply
        records the decision.
        """
        self._record(True)

    def _record(self, transmitted: bool) -> None:
        self._decisions.append(1 if transmitted else 0)

    def record_batch(self, decisions: np.ndarray) -> None:
        """Append one decision per slot for a whole batch run at once.

        Used by vectorized engines that compute many slots' decisions in
        a single array operation and then fast-forward the per-node
        policy objects, keeping :attr:`decisions` and
        :attr:`empirical_frequency` consistent with a slot-by-slot run.
        """
        self._decisions.extend(
            np.asarray(decisions, dtype=int).ravel().tolist()
        )

    @property
    def fleet_scalar_state(self) -> float:
        """The policy's scalar accumulator, mirrored into the columnar
        :attr:`FleetState.policy_state
        <repro.simulation.fleet.FleetState.policy_state>` column (the
        Lyapunov virtual queue for the adaptive policy, the rate
        accumulator for uniform sampling; 0.0 for stateless policies).
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
