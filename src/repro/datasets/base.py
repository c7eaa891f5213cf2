"""Dataset container used across experiments.

A :class:`TraceDataset` holds a time-slotted utilization trace of shape
``(T, N, d)`` plus the metadata experiments care about (resource names,
sampling period).  Real traces (Alibaba/Bitbrains/Google) and our
synthetic stand-ins are both represented this way, so every algorithm and
benchmark is agnostic to the data's origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.types import validate_trace
from repro.exceptions import DataError


@dataclass
class TraceDataset:
    """A resource-utilization trace for ``N`` nodes over ``T`` slots.

    Attributes:
        name: Human-readable dataset name.
        data: Array of shape ``(T, N, d)`` with values in [0, 1].
        resource_names: Length-``d`` names, e.g. ``("cpu", "memory")``.
        period_minutes: Sampling period of one slot, in minutes.
    """

    name: str
    data: np.ndarray
    resource_names: Tuple[str, ...] = ("cpu", "memory")
    period_minutes: float = 5.0

    def __post_init__(self) -> None:
        self.data = validate_trace(self.data)
        if len(self.resource_names) != self.data.shape[2]:
            raise DataError(
                f"{len(self.resource_names)} resource names for "
                f"d={self.data.shape[2]} dimensions"
            )

    @property
    def num_steps(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.data.shape[1])

    @property
    def num_resources(self) -> int:
        return int(self.data.shape[2])

    def resource(self, name: str) -> np.ndarray:
        """Return the ``(T, N)`` trace of one resource type by name."""
        try:
            idx = self.resource_names.index(name)
        except ValueError:
            raise DataError(
                f"unknown resource {name!r}; have {self.resource_names}"
            )
        return self.data[:, :, idx]

    def slice(
        self,
        *,
        steps: slice = slice(None),
        nodes: slice = slice(None),
    ) -> "TraceDataset":
        """Return a view-backed sub-dataset (used for scaled-down benches)."""
        return TraceDataset(
            name=self.name,
            data=self.data[steps, nodes, :],
            resource_names=self.resource_names,
            period_minutes=self.period_minutes,
        )
