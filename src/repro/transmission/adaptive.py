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

from typing import Callable, List, Union

import numpy as np

from repro.core.config import TransmissionConfig
from repro.exceptions import DataError
from repro.registry import register_slot_kernel, register_transmission_policy
from repro.transmission.base import TransmissionPolicy

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

    Evaluates, for a batch of ``n`` nodes at once, exactly what
    :meth:`AdaptiveTransmissionPolicy.decide` (or
    :meth:`~AdaptiveTransmissionPolicy.first_transmission` for nodes
    that have not observed anything yet) computes per node — element-wise
    operations keep every node's arithmetic bit-identical to the scalar
    path.  Shared by the whole-trace collection recurrence and the
    streaming session's vectorized slot.

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
def _adaptive_slot_kernel(config: TransmissionConfig) -> Callable:
    budget, v0, gamma = config.budget, config.v0, config.gamma

    def kernel(x, stored, observed, state, times):
        return adaptive_transmit_slot(
            x, stored, observed, state, times, budget, v0, gamma
        )

    return kernel


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

    def sync_batch(
        self,
        decisions: np.ndarray,
        queue_samples: np.ndarray,
        final_queue: float,
    ) -> None:
        """Fast-forward the policy past a vectorized batch run.

        Args:
            decisions: Binary decisions for the processed slots.
            queue_samples: ``Q_i(t)`` sampled before each decision,
                aligned with ``decisions``.
            final_queue: Queue value after the last processed slot.
        """
        self.record_batch(decisions)
        self._queue_history.extend(
            np.asarray(queue_samples, dtype=float).ravel().tolist()
        )
        self._queue = float(final_queue)
        self._time += int(np.size(decisions))

    def reset(self) -> None:
        super().reset()
        self._queue = 0.0
        self._time = 0
        self._queue_history.clear()


@register_transmission_policy("adaptive")
def _build_adaptive(config: TransmissionConfig, node_id: int) -> AdaptiveTransmissionPolicy:
    return AdaptiveTransmissionPolicy(config)
