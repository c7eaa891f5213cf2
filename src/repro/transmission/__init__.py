"""Transmission policies: when does a local node send its measurement.

Implements the paper's adaptive Lyapunov drift-plus-penalty policy
(Sec. V-A), the uniform-sampling baseline it is compared against in
Fig. 4, the deadband (send-on-delta) baseline of the related-work
ablation, and the perfect (always-transmit) reference.

Each policy is one vectorized *slot kernel* (``*_transmit_slot``)
evaluating one slot's decisions for a whole fleet in one array
operation, with its per-node state in the fleet's ``policy_state``
column.  Each module's ``*_slot_kernel(config)`` is registered in
:data:`repro.registry.SLOT_KERNELS` and returns that kernel; streaming
sessions call it per slot, and the whole-trace collection backends
(:mod:`repro.simulation.collection`) loop it over a trace.
"""

# perfect.py defines only its SLOT_KERNELS registration.
from repro.transmission import perfect  # noqa: F401
from repro.transmission.adaptive import adaptive_transmit_slot
from repro.transmission.deadband import deadband_transmit_slot
from repro.transmission.uniform import uniform_transmit_slot

__all__ = [
    "adaptive_transmit_slot",
    "deadband_transmit_slot",
    "uniform_transmit_slot",
]
