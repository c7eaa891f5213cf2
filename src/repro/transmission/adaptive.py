"""Adaptive transmission via Lyapunov drift-plus-penalty (Sec. V-A).

Each node maintains a virtual queue ``Q_i(t)`` measuring accumulated
violation of its transmission budget ``B_i``.  Per slot it picks

    β_{i,t} = argmin_{β ∈ {0,1}}  V_t · F_{i,t}(β) + Q_i(t) · Y_i(β)

with penalty ``F_{i,t}(0) = (1/d)·||z_{i,t} − x_{i,t}||²``, ``F_{i,t}(1) =
0``, budget drift ``Y_i(β) = β − B_i``, and time-increasing weight
``V_t = V0 · (t+1)^γ``.  The queue then updates as ``Q_i(t+1) = Q_i(t) +
Y_i(β_{i,t})``.

Lyapunov-optimization theory guarantees the long-run empirical frequency
converges to ``B_i`` (the constraint is met with equality since extra
transmissions never hurt RMSE), while transmissions concentrate on slots
where the stored value has drifted most from the truth.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.core.config import TransmissionConfig
from repro.registry import register_slot_kernel

#: Per-node parameters accepted by the batched kernels: one shared
#: scalar or a per-node ``(n,)`` array.
Param = Union[float, np.ndarray]


def adaptive_transmit_slot(
    x: np.ndarray,
    stored: np.ndarray,
    observed: np.ndarray,
    queues: np.ndarray,
    times: Union[int, np.ndarray],
    budgets: Param,
    v0s: Param,
    gammas: Param,
) -> np.ndarray:
    """One fleet-wide slot of the drift-plus-penalty recurrence.

    Evaluates the module docstring's argmin for a batch of ``n`` nodes
    at once; a node transmits when the β = 1 objective is strictly
    smaller, so a tie stays silent.  Nodes that have not observed
    anything yet transmit unconditionally and are charged ``1 − B``
    like any other send.  The queue stays signed: negative values are
    credit from quiet slots, which lets the long-run frequency meet the
    budget with equality (Fig. 3) instead of quantizing to
    ``1/ceil(1/B)``.

    Args:
        x: Fresh measurements ``x_t``, shape ``(n, d)``.
        stored: The nodes' mirrors of the stored values ``z_t``, shape
            ``(n, d)`` (rows of not-yet-observed nodes are ignored).
        observed: Bool ``(n,)`` — False forces the initial transmission.
        queues: Virtual queues ``Q_i(t)``, shape ``(n,)``; updated in
            place with this slot's drift.
        times: Per-node decision counts (``(n,)`` or a shared scalar).
        budgets: Budget ``B`` (scalar or per-node).
        v0s: Control weight ``V0`` (scalar or per-node).
        gammas: Growth exponent ``γ`` (scalar or per-node).

    Returns:
        Bool ``(n,)`` transmission decisions ``β_{i,t}``.
    """
    dim = x.shape[1]
    # Run the whole recurrence in the queue column's dtype: scalar
    # parameters from a float32 pipeline would otherwise promote every
    # intermediate to float64 and make the streaming slot diverge from
    # the batched recurrence (exact no-op for float64 — python-float
    # parameters and int slot clocks cast losslessly).
    dtype = queues.dtype
    budgets = np.asarray(budgets, dtype=dtype)
    v0s = np.asarray(v0s, dtype=dtype)
    gammas = np.asarray(gammas, dtype=dtype)
    v_t = v0s * (np.asarray(times, dtype=dtype) + dtype.type(1.0)) ** gammas
    penalty = ((stored - x) ** 2).sum(axis=1) / dim
    objective_skip = v_t * penalty - queues * budgets
    objective_send = queues * (dtype.type(1.0) - budgets)
    transmit = (objective_send < objective_skip) | ~observed
    queues += transmit - budgets
    return transmit


@register_slot_kernel("adaptive")
def adaptive_slot_kernel(config: TransmissionConfig) -> Callable:
    budget, v0, gamma = config.budget, config.v0, config.gamma

    def kernel(x, stored, observed, state, times):
        return adaptive_transmit_slot(
            x, stored, observed, state, times, budget, v0, gamma
        )

    return kernel
