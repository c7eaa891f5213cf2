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

from repro.exceptions import ConfigurationError
from repro.registry import register_collection_backend, register_slot_kernel


def deadband_transmit_slot(
    x: np.ndarray,
    stored: np.ndarray,
    observed: np.ndarray,
    threshold: Union[float, np.ndarray],
) -> np.ndarray:
    """One fleet-wide deadband slot: transmit on drift beyond ``δ²``.

    A node transmits when ``(1/d)·||z − x||² > δ²``; fresh nodes
    transmit unconditionally (the forced first transmission).  Shared
    by the whole-trace deadband collection and the streaming session's
    slot.

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
def _deadband_slot_kernel(config) -> Callable:
    threshold = config.deadband_delta ** 2

    def kernel(x, stored, observed, state, times):
        return deadband_transmit_slot(x, stored, observed, threshold)

    return kernel


def simulate_deadband_collection(trace: np.ndarray, delta: float):
    """Vectorized deadband collection over a full trace.

    Args:
        trace: True measurements, shape ``(T, N)`` or ``(T, N, d)``.
        delta: Deadband half-width.

    Returns:
        A :class:`~repro.simulation.collection.CollectionResult`.
    """
    from repro.core.types import validate_trace
    from repro.simulation.collection import CollectionResult

    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    data = validate_trace(trace)
    num_steps, num_nodes, _ = data.shape
    stored_now = np.zeros_like(data[0])
    observed = np.zeros(num_nodes, dtype=bool)
    stored = np.empty_like(data)
    decisions = np.zeros((num_steps, num_nodes), dtype=int)
    threshold = delta**2
    for t in range(num_steps):
        transmit = deadband_transmit_slot(
            data[t], stored_now, observed, threshold
        )
        stored_now = np.where(transmit[:, np.newaxis], data[t], stored_now)
        observed |= transmit
        decisions[t] = transmit
        stored[t] = stored_now
    return CollectionResult(stored=stored, decisions=decisions)


@register_collection_backend("deadband")
def _collect_deadband(trace: np.ndarray, config):
    return simulate_deadband_collection(trace, config.deadband_delta)
