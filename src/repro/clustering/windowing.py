"""Temporal-window feature construction for clustering (Sec. V-B, Fig. 5).

The paper's clustering can optionally operate on extended feature vectors
containing a node's measurements over the last ``w`` time steps rather
than just the current one.  Fig. 5 sweeps this window length and finds
``w = 1`` best for the highly dynamic traces studied.  This module builds
those windowed feature matrices from a history of stored measurements.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np

from repro.exceptions import ConfigurationError, DataError


class WindowedFeatureBuilder:
    """Accumulates per-slot measurements and emits windowed features.

    Args:
        window: Number of most recent slots (including the current one)
            concatenated into each node's feature vector.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffer: Deque[np.ndarray] = deque(maxlen=window)

    def push(self, values: np.ndarray) -> np.ndarray:
        """Add one slot of measurements and return the current features.

        Until ``window`` slots have been seen, the oldest available slot is
        repeated (zero-order hold backwards), so the feature dimension is
        constant from the first call.

        Args:
            values: Shape ``(N, d)`` or ``(N,)`` measurements for one slot.

        Returns:
            Feature matrix of shape ``(N, window * d)``, most recent slot
            last.
        """
        data = np.asarray(values, dtype=float)
        if data.ndim == 1:
            data = data[:, np.newaxis]
        if data.ndim != 2:
            raise DataError(f"values must be (N, d), got shape {data.shape}")
        if self._buffer and self._buffer[-1].shape != data.shape:
            raise DataError(
                f"inconsistent slot shape: {data.shape} after "
                f"{self._buffer[-1].shape}"
            )
        self._buffer.append(data)
        slots = list(self._buffer)
        while len(slots) < self.window:
            slots.insert(0, slots[0])
        return np.concatenate(slots, axis=1)

    def reset(self) -> None:
        """Drop all buffered history."""
        self._buffer.clear()
