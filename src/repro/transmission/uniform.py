"""Uniform-sampling transmission baseline (Sec. VI-B, Fig. 4).

Transmits at a fixed interval so that the average transmission frequency
equals the budget ``B``, regardless of how much the measurement changed.
For non-integer ``1/B`` an error-diffusion accumulator is used so the
long-run empirical frequency still converges to exactly ``B``.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.registry import register_slot_kernel


def uniform_transmit_slot(
    observed: np.ndarray,
    accumulators: np.ndarray,
    budgets: Union[float, np.ndarray],
) -> np.ndarray:
    """One fleet-wide slot of the error-diffusion sampling recurrence.

    Nodes past their forced first transmission add ``B`` to their
    accumulator and transmit when it reaches 1, which then drops by 1;
    fresh nodes transmit without touching it.  The decision ignores the
    data, which is what Fig. 4 contrasts against.

    Args:
        observed: Bool ``(n,)`` — False forces the initial transmission.
        accumulators: Rate accumulators in [0, 1), shape ``(n,)``;
            advanced in place for observed nodes.  A non-zero initial
            value (a phase) staggers a fleet's transmissions.
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
def uniform_slot_kernel(config) -> Callable:
    budget = config.budget

    def kernel(x, stored, observed, state, times):
        return uniform_transmit_slot(observed, state, budget)

    return kernel
