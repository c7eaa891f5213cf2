"""Whole-trace collection backends (transmission stage only).

Each backend loops one policy's slot kernel (:mod:`repro.transmission`)
over a recorded trace, with one array operation per slot for the whole
fleet.  A streaming session calls the same kernel per slot, so a
session fed the trace slot by slot transmits exactly as the backend
does.  :func:`collect` dispatches by name through
:data:`repro.registry.COLLECTION_BACKENDS`; ``Engine.run`` calls the
backends the same way.  The test suite keeps a per-node object model of
the same policies (``tests/collection_oracle.py``) and pins every
backend against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import TransmissionConfig
from repro.core.types import validate_trace
from repro.exceptions import ConfigurationError
from repro.registry import COLLECTION_BACKENDS, register_collection_backend
from repro.simulation.transport import TransportStats
from repro.transmission.adaptive import adaptive_transmit_slot
from repro.transmission.uniform import uniform_transmit_slot


@dataclass
class CollectionResult:
    """Outcome of running a collection simulation over a full trace.

    Attributes:
        stored: Array ``(T, N, d)``: the controller's ``z_t`` after each
            slot.
        decisions: Binary array ``(T, N)`` of transmissions ``β_{i,t}``.
        stats: Transport counters; the backends leave it None and
            ``Engine.run`` derives it from the decisions.
    """

    stored: np.ndarray
    decisions: np.ndarray
    stats: Optional[TransportStats] = None

    @property
    def empirical_frequency(self) -> float:
        """Overall fraction of node-slots with a transmission."""
        return float(self.decisions.mean())

    def per_node_frequency(self) -> np.ndarray:
        """Per-node empirical transmission frequency, shape ``(N,)``."""
        return self.decisions.mean(axis=0)


def _prepare(trace: np.ndarray) -> Tuple[np.ndarray, int, int, int]:
    data = validate_trace(trace)
    num_steps, num_nodes, dim = data.shape
    return data, num_steps, num_nodes, dim


def _adaptive_recurrence(
    data: np.ndarray,
    budgets: np.ndarray,
    v0s: np.ndarray,
    gammas: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fleet-wide Lyapunov drift-plus-penalty recurrence.

    Iterates :func:`~repro.transmission.adaptive.adaptive_transmit_slot`
    — the same batched kernel streaming sessions run per slot — over a
    whole trace, with per-node budgets and control parameters.

    Returns:
        ``(stored, decisions)``.
    """
    num_steps, num_nodes, dim = data.shape
    stored = np.empty_like(data)
    decisions = np.zeros((num_steps, num_nodes), dtype=int)
    # Policy accumulators run in the trace's dtype so a float32 pipeline
    # never silently upcasts its hot-loop state.
    queues = np.zeros(num_nodes, dtype=data.dtype)
    observed = np.zeros(num_nodes, dtype=bool)
    stored_now = np.zeros_like(data[0])

    for t in range(num_steps):
        transmit = adaptive_transmit_slot(
            data[t], stored_now, observed, queues, t, budgets, v0s, gammas
        )
        stored_now = np.where(transmit[:, np.newaxis], data[t], stored_now)
        observed |= transmit
        decisions[t] = transmit
        stored[t] = stored_now
    return stored, decisions


def _uniform_recurrence(
    data: np.ndarray, budgets: np.ndarray, phases: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fleet-wide error-diffusion uniform-sampling recurrence.

    Iterates :func:`~repro.transmission.uniform.uniform_transmit_slot`
    over a whole trace, each node's accumulator starting at its phase.

    Returns:
        ``(stored, decisions)``.
    """
    num_steps, num_nodes, _ = data.shape
    accumulator = np.asarray(phases, dtype=data.dtype).copy()
    observed = np.zeros(num_nodes, dtype=bool)
    stored_now = np.zeros_like(data[0])
    stored = np.empty_like(data)
    decisions = np.zeros((num_steps, num_nodes), dtype=int)
    for t in range(num_steps):
        transmit = uniform_transmit_slot(observed, accumulator, budgets)
        stored_now = np.where(transmit[:, np.newaxis], data[t], stored_now)
        observed |= transmit
        decisions[t] = transmit
        stored[t] = stored_now
    return stored, decisions


def simulate_adaptive_collection(
    trace: np.ndarray,
    config: TransmissionConfig = TransmissionConfig(),
) -> CollectionResult:
    """Vectorized Lyapunov adaptive collection over a full trace.

    Every node transmits at slot 0 (the forced first transmission) and
    is charged for it like any other send.
    """
    data, _, num_nodes, _ = _prepare(trace)
    stored, decisions = _adaptive_recurrence(
        data,
        np.full(num_nodes, config.budget, dtype=data.dtype),
        np.full(num_nodes, config.v0, dtype=data.dtype),
        np.full(num_nodes, config.gamma, dtype=data.dtype),
    )
    return CollectionResult(stored=stored, decisions=decisions)


def simulate_uniform_collection(
    trace: np.ndarray,
    budget: float,
    *,
    stagger: bool = True,
    seed: int = 0,
    node_offset: int = 0,
    total_nodes: Optional[int] = None,
) -> CollectionResult:
    """Vectorized uniform-sampling collection over a full trace.

    Args:
        trace: True measurements ``(T, N[, d])``.
        budget: Fixed per-node transmission frequency B.
        stagger: Give each node a random phase (its accumulator's
            initial value) so the fleet does not transmit in lock-step,
            as a practical deployment would.
        seed: RNG seed for phases.
        node_offset: First node's index within the whole fleet — used by
            sharded execution, where ``trace`` is a contiguous node
            slice, so each node keeps the exact phase it would draw in a
            single-shard run.
        total_nodes: Whole-fleet size the phases are drawn for (defaults
            to the trace's own node count).
    """
    if not 0.0 < budget <= 1.0:
        raise ConfigurationError(f"budget must be in (0, 1], got {budget}")
    data, _, num_nodes, _ = _prepare(trace)
    total = num_nodes if total_nodes is None else int(total_nodes)
    if not 0 <= node_offset <= total - num_nodes:
        raise ConfigurationError(
            f"node_offset {node_offset} with {num_nodes} nodes exceeds "
            f"total_nodes {total}"
        )
    if stagger:
        # Draw the whole fleet's phases and slice, so a shard's phases
        # are bit-identical to its columns of the single-shard draw.
        # repro: noqa KER-001(seeded generator; the draw is a pure function of config)
        phases = np.random.default_rng(seed).uniform(0.0, 1.0, size=total)[
            node_offset : node_offset + num_nodes
        ]
    else:
        phases = np.zeros(num_nodes)
    stored, decisions = _uniform_recurrence(
        data, np.full(num_nodes, budget, dtype=data.dtype), phases
    )
    return CollectionResult(stored=stored, decisions=decisions)


# ----------------------------------------------------------------------
# Registry-driven backend dispatch
# ----------------------------------------------------------------------


@register_collection_backend("adaptive")
def _collect_adaptive(
    trace: np.ndarray, config: TransmissionConfig
) -> CollectionResult:
    return simulate_adaptive_collection(trace, config)


@register_collection_backend("uniform")
def _collect_uniform(
    trace: np.ndarray,
    config: TransmissionConfig,
    *,
    node_offset: int = 0,
    total_nodes: Optional[int] = None,
) -> CollectionResult:
    return simulate_uniform_collection(
        trace,
        config.budget,
        node_offset=node_offset,
        total_nodes=total_nodes,
    )


@register_collection_backend("perfect")
def _collect_perfect(
    trace: np.ndarray, config: TransmissionConfig
) -> CollectionResult:
    # No staleness: every node transmits every slot (B = 1).
    data = validate_trace(trace)
    return CollectionResult(
        stored=data.copy(),
        decisions=np.ones(data.shape[:2], dtype=int),
    )


def collect(
    trace: np.ndarray,
    config: TransmissionConfig = TransmissionConfig(),
    *,
    backend: str = "adaptive",
) -> CollectionResult:
    """Run a named collection backend over a recorded trace.

    Args:
        trace: True measurements, shape ``(T, N)`` or ``(T, N, d)``.
        config: Transmission parameters consumed by the backend
            (``adaptive`` uses all of them, ``uniform`` the budget,
            ``deadband`` the deadband width, ``perfect`` none).
        backend: A name registered in
            :data:`repro.registry.COLLECTION_BACKENDS`.

    Returns:
        The backend's :class:`CollectionResult`.
    """
    return COLLECTION_BACKENDS.create(backend, trace, config)
