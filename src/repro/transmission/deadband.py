"""Deadband (send-on-delta) transmission baseline.

The adaptive-sampling literature the paper positions against ([13]–[17]:
ARIMA-driven sampling, set-similarity collection, etc.) transmits when
the local value deviates from the last transmitted value by more than a
threshold δ.  Its defining weakness — the paper's Sec. II argument — is
that the *transmission frequency is only implicit*: it depends on the
data's volatility, so an operator cannot budget bandwidth.  This policy
exists to demonstrate exactly that (see the deadband ablation
experiment).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.registry import register_slot_kernel


def deadband_transmit_slot(
    x: np.ndarray,
    stored: np.ndarray,
    observed: np.ndarray,
    threshold: Union[float, np.ndarray],
) -> np.ndarray:
    """One fleet-wide deadband slot: transmit on drift beyond ``δ²``.

    A node transmits when ``(1/d)·||z − x||² > δ²``; fresh nodes
    transmit unconditionally (the forced first transmission).

    Args:
        x: Fresh measurements, shape ``(n, d)``.
        stored: Stored values ``z_t``, shape ``(n, d)``.
        observed: Bool ``(n,)`` — False forces the initial transmission.
        threshold: The *squared* deadband half-width ``δ²`` (scalar or
            per-node), pre-squared by the caller.

    Returns:
        Bool ``(n,)`` transmission decisions.
    """
    deviation = ((stored - x) ** 2).mean(axis=1)
    return (deviation > threshold) | ~observed


@register_slot_kernel("deadband")
def deadband_slot_kernel(config) -> Callable:
    threshold = config.deadband_delta ** 2

    def kernel(x, stored, observed, state, times):
        return deadband_transmit_slot(x, stored, observed, threshold)

    return kernel
