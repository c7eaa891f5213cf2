"""Perfect (always-transmit) transmission policy.

The streaming counterpart of the ``"perfect"`` collection backend:
every node transmits every slot (B = 1), so the central store is never
stale.  Useful as the no-staleness reference in live deployments and
for isolating clustering/forecasting error from collection error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.registry import register_slot_kernel


@register_slot_kernel("perfect")
def perfect_slot_kernel(config) -> Callable:
    def kernel(x, stored, observed, state, times):
        return np.ones(x.shape[0], dtype=bool)

    return kernel
