"""Uniform-sampling transmission baseline (Sec. VI-B, Fig. 4).

Transmits at a fixed interval so that the average transmission frequency
equals the budget ``B``, regardless of how much the measurement changed.
For non-integer ``1/B`` an error-diffusion accumulator is used so the
long-run empirical frequency still converges to exactly ``B``.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.registry import register_slot_kernel, register_transmission_policy
from repro.transmission.base import TransmissionPolicy


def uniform_transmit_slot(
    observed: np.ndarray,
    accumulators: np.ndarray,
    budgets: Union[float, np.ndarray],
) -> np.ndarray:
    """One fleet-wide slot of the error-diffusion sampling recurrence.

    The batched form of :meth:`UniformTransmissionPolicy.decide` (nodes
    past their forced first transmission advance their accumulator;
    fresh nodes transmit without touching it, exactly like
    ``first_transmission``).  Shared by the whole-trace collection
    recurrence and the streaming session's vectorized slot.

    Args:
        observed: Bool ``(n,)`` — False forces the initial transmission.
        accumulators: Rate accumulators, shape ``(n,)``; advanced in
            place for observed nodes.
        budgets: Target frequency ``B`` (scalar or per-node ``(n,)``).

    Returns:
        Bool ``(n,)`` transmission decisions.
    """
    # Stay in the accumulator column's dtype (see the adaptive kernel):
    # a scalar budget must not promote float32 state through float64.
    budgets = np.asarray(budgets, dtype=accumulators.dtype)
    accumulators += budgets * observed
    crossed = (accumulators >= 1.0) & observed
    accumulators[crossed] -= 1.0
    return crossed | ~observed


@register_slot_kernel("uniform")
def _uniform_slot_kernel(config) -> Callable:
    budget = config.budget

    def kernel(x, stored, observed, state, times):
        return uniform_transmit_slot(observed, state, budget)

    return kernel


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

    def sync_batch(
        self, decisions: np.ndarray, final_accumulator: float
    ) -> None:
        """Fast-forward the policy past a vectorized batch run.

        Args:
            decisions: Binary decisions for the processed slots.
            final_accumulator: Accumulator value after the last slot.
        """
        self.record_batch(decisions)
        self._accumulator = float(final_accumulator)

    def reset(self) -> None:
        super().reset()
        self._accumulator = self.phase


@register_transmission_policy("uniform")
def _build_uniform(config, node_id: int) -> UniformTransmissionPolicy:
    # Phase 0 for determinism; the uniform collection backend staggers
    # phases, and CollectionSimulation takes per-node policies (e.g.
    # ``phase=i / num_nodes``).
    return UniformTransmissionPolicy(config.budget)
