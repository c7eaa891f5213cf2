"""Whole-trace collection backends (transmission stage only).

:func:`run_slot_kernel` calls one built slot kernel
(:mod:`repro.transmission`) once per slot over a recorded trace, the
same call a streaming session makes, so a session fed the trace slot
by slot transmits exactly as the loop does.  Each backend builds its
policy's kernel with the policy module's own ``*_slot_kernel``
function (never through ``SLOT_KERNELS``, whose entries a caller may
replace with code unsafe on the shard pool's threads), picks the
initial state and runs the loop.  :func:`collect` dispatches by name
through :data:`repro.registry.COLLECTION_BACKENDS`, as ``Engine.run``
does.  The test suite pins every backend against a per-node object
model of the same policies (``tests/collection_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.config import TransmissionConfig
from repro.core.types import validate_trace
from repro.exceptions import SimulationError
from repro.registry import COLLECTION_BACKENDS, register_collection_backend
from repro.transmission.adaptive import adaptive_slot_kernel
from repro.transmission.deadband import deadband_slot_kernel
from repro.transmission.perfect import perfect_slot_kernel
from repro.transmission.uniform import uniform_slot_kernel


@dataclass
class CollectionResult:
    """Outcome of running a collection simulation over a full trace.

    Attributes:
        stored: Array ``(T, N, d)``: the controller's ``z_t`` after each
            slot.
        decisions: Binary array ``(T, N)`` of transmissions ``β_{i,t}``.
    """

    stored: np.ndarray
    decisions: np.ndarray

    @property
    def empirical_frequency(self) -> float:
        """Overall fraction of node-slots with a transmission."""
        return float(self.decisions.mean())

    def per_node_frequency(self) -> np.ndarray:
        """Per-node empirical transmission frequency, shape ``(N,)``."""
        return self.decisions.mean(axis=0)


def run_slot_kernel(
    kernel: Callable,
    trace: np.ndarray,
    state: Optional[np.ndarray] = None,
) -> CollectionResult:
    """Call a built slot kernel once per slot over a whole trace.

    Every node starts unobserved, so its first slot is the forced
    first transmission, and each slot's senders store their fresh
    value; the kernel sees slot ``t`` as every node's clock.

    Args:
        kernel: A built slot kernel ``kernel(x, stored, observed,
            state, times) -> transmit`` (see
            :func:`~repro.registry.register_slot_kernel`).
        trace: True measurements, shape ``(T, N)`` or ``(T, N, d)``;
            the loop computes in the trace's float dtype.
        state: Initial per-node policy state, shape ``(N,)`` (copied;
            default zeros, what a session's fresh fleet holds).

    Returns:
        The run's :class:`CollectionResult`.
    """
    data = validate_trace(trace)
    num_steps, num_nodes, _ = data.shape
    if state is None:
        policy_state = np.zeros(num_nodes, dtype=data.dtype)
    else:
        policy_state = np.array(state, dtype=data.dtype)
        if policy_state.shape != (num_nodes,):
            raise SimulationError(
                f"state must have shape ({num_nodes},), got "
                f"{policy_state.shape}"
            )
    observed = np.zeros(num_nodes, dtype=bool)
    stored_now = np.zeros_like(data[0])
    stored = np.empty_like(data)
    decisions = np.zeros((num_steps, num_nodes), dtype=int)
    for t in range(num_steps):
        transmit = kernel(data[t], stored_now, observed, policy_state, t)
        stored_now = np.where(transmit[:, np.newaxis], data[t], stored_now)
        observed |= transmit
        decisions[t] = transmit
        stored[t] = stored_now
    return CollectionResult(stored=stored, decisions=decisions)


# ----------------------------------------------------------------------
# Registry-driven backend dispatch
# ----------------------------------------------------------------------


@register_collection_backend("adaptive")
def _collect_adaptive(
    trace: np.ndarray, config: TransmissionConfig
) -> CollectionResult:
    return run_slot_kernel(adaptive_slot_kernel(config), trace)


@register_collection_backend("uniform")
def _collect_uniform(
    trace: np.ndarray,
    config: TransmissionConfig,
    *,
    node_offset: int = 0,
    total_nodes: Optional[int] = None,
) -> CollectionResult:
    # Seeded random phases keep the fleet out of lock-step.  The draw
    # covers the whole fleet, so a shard (the node range starting at
    # node_offset) keeps its columns of the single-shard draw.
    data = validate_trace(trace)
    num_nodes = data.shape[1]
    total = num_nodes if total_nodes is None else int(total_nodes)
    # repro: noqa KER-001(seeded generator; the draw is a pure function of config)
    phases = np.random.default_rng(0).uniform(0.0, 1.0, size=total)
    return run_slot_kernel(
        uniform_slot_kernel(config),
        data,
        phases[node_offset : node_offset + num_nodes],
    )


@register_collection_backend("deadband")
def _collect_deadband(
    trace: np.ndarray, config: TransmissionConfig
) -> CollectionResult:
    return run_slot_kernel(deadband_slot_kernel(config), trace)


@register_collection_backend("perfect")
def _collect_perfect(
    trace: np.ndarray, config: TransmissionConfig
) -> CollectionResult:
    # No staleness: every node transmits every slot (B = 1).
    return run_slot_kernel(perfect_slot_kernel(config), trace)


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
