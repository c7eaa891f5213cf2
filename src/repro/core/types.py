"""Core value types shared across the library.

The paper (Sec. IV) models a distributed system of ``N`` local nodes, each
producing a ``d``-dimensional measurement per time slot (one dimension per
resource type, e.g. CPU and memory).  The types here give those concepts
names so the rest of the code can pass them around explicitly instead of
using bare tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.exceptions import DataError

#: Index of a local node, ``0 <= node < N``.
NodeId = int

#: Index of a cluster, ``0 <= cluster < K``.
ClusterId = int

#: A cluster partition: ``labels[i]`` is the cluster id of node ``i``.
Labels = np.ndarray


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of one clustering step at the central node.

    Attributes:
        time: The time slot the assignment belongs to.
        labels: Array of shape ``(N,)``; ``labels[i]`` is the (re-indexed)
            cluster id of node ``i`` at this time slot.
        centroids: Array of shape ``(K, d)`` with the centroid of each
            cluster, indexed consistently with ``labels``.
    """

    time: int
    labels: np.ndarray
    centroids: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        centroids = np.asarray(self.centroids, dtype=float)
        if labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {labels.shape}")
        if centroids.ndim != 2:
            raise DataError(
                f"centroids must be 2-D, got shape {centroids.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= len(centroids)):
            raise DataError(
                "labels reference cluster ids outside [0, K): "
                f"min={labels.min()}, max={labels.max()}, K={len(centroids)}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "centroids", centroids)

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.labels.shape[0])

    def members(self, cluster: ClusterId) -> np.ndarray:
        """Return the node ids belonging to ``cluster`` (paper's C_{j,t})."""
        return np.flatnonzero(self.labels == cluster)


@dataclass
class Forecast:
    """A multi-horizon forecast made at one time step.

    Attributes:
        made_at: The time slot ``t`` the forecast was issued.
        horizons: The forecast steps ``h`` (e.g. ``[1, 2, ..., H]``).
        node_values: Array of shape ``(len(horizons), N, d)`` with the
            forecasted per-node utilizations ``x̂_{i,t+h}``.
        centroid_values: Array of shape ``(len(horizons), K, d)`` with the
            forecasted centroids ``ĉ_{j,t+h}``.
        memberships: Array of shape ``(N,)`` with the forecasted cluster of
            each node (the paper forecasts a single membership used for all
            horizons).
    """

    made_at: int
    horizons: Sequence[int]
    node_values: np.ndarray
    centroid_values: np.ndarray
    memberships: np.ndarray

    def for_horizon(self, h: int) -> np.ndarray:
        """Return the ``(N, d)`` per-node forecast for horizon ``h``."""
        try:
            idx = list(self.horizons).index(h)
        except ValueError:
            raise DataError(f"horizon {h} not in forecast horizons {self.horizons}")
        return self.node_values[idx]


@dataclass
class TransmissionRecord:
    """Bookkeeping of transmission decisions for one node.

    Attributes:
        node: Node id.
        decisions: ``decisions[t]`` is 1 if the node transmitted in slot t.
    """

    node: NodeId
    decisions: List[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return int(sum(self.decisions))

    @property
    def frequency(self) -> float:
        """Empirical transmission frequency (fraction of slots transmitted)."""
        if not self.decisions:
            return 0.0
        return self.count / len(self.decisions)


def validate_trace(
    trace: np.ndarray, dtype: "np.typing.DTypeLike" = None
) -> np.ndarray:
    """Validate and normalize a trace array to shape ``(T, N, d)``.

    Args:
        trace: Array of measurements.  Accepted shapes are ``(T, N)``
            (single resource, promoted to ``d=1``) and ``(T, N, d)``.
        dtype: Floating dtype of the returned array.  ``None`` (the
            default) keeps a float32/float64 trace in its own dtype —
            so a float32 pipeline's data survives the re-validation
            inside every collection backend — and casts everything else
            (ints, lists) to float64.  A trace already in the requested
            dtype is returned without copying.

    Returns:
        The validated floating array with shape ``(T, N, d)``.

    Raises:
        DataError: If the shape is unsupported or the data contains NaNs.
    """
    arr = np.asarray(trace)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    arr = np.asarray(arr, dtype=dtype)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3:
        raise DataError(
            f"trace must have shape (T, N) or (T, N, d), got {arr.shape}"
        )
    if arr.size == 0:
        raise DataError("trace is empty")
    if not np.isfinite(arr).all():
        raise DataError("trace contains NaN or infinite values")
    return arr
