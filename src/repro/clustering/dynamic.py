"""Dynamic cluster construction over time (Sec. V-B).

At every time slot the central node:

1. runs K-means on the currently stored measurements ``z_t``;
2. re-indexes the resulting clusters against the previous ``M`` partitions
   by solving a maximum-weight bipartite matching on the similarity
   measure (Eq. 10–11), so cluster ``j``'s identity persists over time;
3. records the re-indexed centroids, forming one time series of
   centroids per cluster — the input to the forecasting stage.

The tracker keeps only the history it reads: the last ``M`` labellings
(the similarity window) and the centroid series.  Each :meth:`update`
returns its slot's full :class:`~repro.core.types.ClusterAssignment`;
callers that need a longer label history keep those.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.clustering.kmeans import cluster_means, kmeans
from repro.clustering.matching import maximum_weight_assignment
from repro.clustering.similarity import similarity_matrix_from_labels
from repro.core.ring import SlotSeries
from repro.core.types import ClusterAssignment
from repro.exceptions import ConfigurationError, DataError


class DynamicClusterTracker:
    """Tracks an evolving K-cluster partition of node measurements.

    Clustering runs in float64 whatever ``PipelineConfig.dtype`` is:
    values are cast on :meth:`update`, and K-means, the centroid series
    and the checkpointed state are float64.  A float32 K-means would
    relabel float32 sessions and break their bit-identical resume.

    Args:
        num_clusters: Number of clusters K.
        history_depth: Look-back ``M`` of the similarity measure.
        similarity: ``"intersection"`` (paper, Eq. 10) or ``"jaccard"``.
        restarts: K-means++ restarts per step.
        seed: Seed of the internal RNG (reproducible clustering).
        warm_start: When True, seed each step's K-means with the previous
            step's centroids (a natural speed optimization for slowly
            moving data).  The paper does not specify this; default off.
    """

    def __init__(
        self,
        num_clusters: int,
        *,
        history_depth: int = 1,
        similarity: str = "intersection",
        restarts: int = 3,
        seed: Optional[int] = None,
        warm_start: bool = False,
    ) -> None:
        if num_clusters < 1:
            raise ConfigurationError(
                f"num_clusters must be >= 1, got {num_clusters}"
            )
        if history_depth < 1:
            raise ConfigurationError(
                f"history_depth must be >= 1, got {history_depth}"
            )
        self.num_clusters = num_clusters
        self.history_depth = history_depth
        self.similarity = similarity
        self.restarts = restarts
        self.warm_start = warm_start
        self._rng = np.random.default_rng(seed)
        #: The narrowest integer type holding every label in [0, K):
        #: the dtype of the label window and of its checkpoint (uint8
        #: for K <= 256).  Returned labels stay int64.
        self.label_dtype = np.min_scalar_type(num_clusters - 1)
        # Re-indexed labels of the last `history_depth` slots — the raw
        # material of the Eq. 10 similarity (kept as arrays so the
        # contingency is one bincount, not per-node set building).
        self._label_window: Deque[np.ndarray] = deque(maxlen=history_depth)
        self._previous_centroids: Optional[np.ndarray] = None
        # One (K, d) row per slot.  Every array handed out is a copy,
        # except recent_centroids' read-only view.
        self._centroids = SlotSeries()
        self._time = 0
        self._dim: Optional[int] = None

    @property
    def time(self) -> int:
        """Number of updates performed so far."""
        return self._time

    def centroid_series(self, cluster: int) -> np.ndarray:
        """Time series of centroids for ``cluster``, shape ``(t, d)``.

        Before the first update the series is empty but keeps a
        consistent 2-D shape: ``(0, d)`` once the dimensionality is
        known, ``(0, 1)`` otherwise.
        """
        if cluster < 0 or cluster >= self.num_clusters:
            raise ConfigurationError(
                f"cluster {cluster} outside [0, {self.num_clusters})"
            )
        if not self._centroids:
            return np.empty((0, self._dim if self._dim is not None else 1))
        return self._centroids.view()[:, cluster].copy()

    def centroid_tensor(self) -> np.ndarray:
        """Centroid series of every cluster at once, shape ``(t, K, d)``.

        ``centroid_tensor()[:, j]`` equals :meth:`centroid_series`
        ``(j)``; this is the batched form consumed by the forecaster
        banks.  Before the first update the tensor is empty with a
        consistent shape: ``(0, K, d)`` once the dimensionality is
        known, ``(0, K, 1)`` otherwise.
        """
        if not self._centroids:
            return np.empty((
                0,
                self.num_clusters,
                self._dim if self._dim is not None else 1,
            ))
        return self._centroids.copy()

    def recent_centroids(self, count: int) -> np.ndarray:
        """The last ``count`` slots' centroids, oldest first,
        ``(min(count, t), K, d)`` — a read-only view of the tail of
        :meth:`centroid_tensor`, not a copy."""
        if not self._centroids:
            return self.centroid_tensor()
        return self._centroids.tail(count)

    def update(
        self,
        values: np.ndarray,
        features: Optional[np.ndarray] = None,
    ) -> ClusterAssignment:
        """Cluster one time slot of stored measurements.

        Args:
            values: Shape ``(N, d)`` (or ``(N,)``) — the measurements
                ``z_t`` used to compute the reported centroids.
            features: Optional shape ``(N, f)`` feature matrix to run
                K-means on instead of ``values`` (used for temporal-window
                clustering, Fig. 5).  Reported centroids are always means
                of ``values`` so different feature choices stay comparable.

        Returns:
            The re-indexed :class:`ClusterAssignment` for this slot.

        Raises:
            DataError: On malformed ``values`` or ``features``, or on
                ``values`` whose dimensionality differs from earlier
                slots' (the centroid series holds one ``(K, d)`` shape).
        """
        data = np.asarray(values, dtype=float)
        if data.ndim == 1:
            data = data[:, np.newaxis]
        if data.ndim != 2:
            raise DataError(f"values must be (N, d), got shape {data.shape}")
        feats = data if features is None else np.asarray(features, dtype=float)
        if feats.ndim == 1:
            feats = feats[:, np.newaxis]
        if feats.shape[0] != data.shape[0]:
            raise DataError(
                f"features rows {feats.shape[0]} != values rows {data.shape[0]}"
            )

        if self.num_clusters >= data.shape[0]:
            # Degenerate K = N case (each node its own cluster, used by
            # the paper's sample-and-hold-per-node comparison): identity
            # labels are already maximally persistent, so K-means and
            # re-indexing are skipped.
            return self._identity_update(data)

        initial = None
        if (
            self.warm_start
            and self._previous_centroids is not None
            and features is None
        ):
            initial = self._previous_centroids
        result = kmeans(
            feats,
            self.num_clusters,
            restarts=self.restarts,
            rng=self._rng,
            initial_centroids=initial,
        )
        labels = result.labels

        if self._label_window:
            labels = self._reindex(labels)
        centroids = self._value_centroids(data, labels)

        self._centroids.append(centroids)
        self._label_window.append(labels.astype(self.label_dtype))
        self._dim = data.shape[1]
        if features is None:
            self._previous_centroids = centroids
        # A copy: the caller may write into what it is returned, and
        # ``centroids`` may be the next update's seed.
        assignment = ClusterAssignment(
            time=self._time, labels=labels, centroids=centroids.copy()
        )
        self._time += 1
        return assignment

    # ------------------------------------------------------------------
    # Fleet churn (node-axis remapping)
    # ------------------------------------------------------------------

    def reindex_nodes(
        self, index_map: np.ndarray, *, fill_label: int = 0
    ) -> None:
        """Remap the node axis of the remembered labellings.

        Fleet churn renumbers nodes; the similarity window (Eq. 10) is
        the tracker's only node-aligned state, so its ``M`` label
        arrays are rebuilt as ``new[i] = old[index_map[i]]``, with
        joined nodes (``index_map[i] == -1``) backfilled with
        ``fill_label``.  The centroid series is per-cluster and
        unaffected.

        Args:
            index_map: int array, one entry per *new* node: the old
                node index it descends from, or ``-1`` for a join.
            fill_label: Cluster label assumed for a joined node's
                missing history (it corrects itself within one
                similarity window).
        """
        index_map = np.asarray(index_map, dtype=np.int64).ravel()
        fresh = index_map < 0
        gather = np.where(fresh, 0, index_map)

        window = []
        for labels in self._label_window:
            remapped = labels[gather]
            remapped[fresh] = int(fill_label)
            window.append(remapped)
        self._label_window = deque(window, maxlen=self.history_depth)

    # ------------------------------------------------------------------
    # Checkpoint state contract
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Serializable tracker state (checkpoint contract).

        Captures everything a future :meth:`update` depends on: the
        re-indexed labels of the last ``M`` slots (the similarity
        window, at most ``M`` rows, in :attr:`label_dtype`), the full
        centroid series (the forecasters' training data), the previous
        centroids used for empty-cluster fallback and warm starts, and
        the *exact* internal RNG state — K-means restarts draw from it,
        so bit-identical resumption requires the generator to continue
        mid-stream.
        """
        return {
            "num_clusters": self.num_clusters,
            "time": self._time,
            "dim": self._dim,
            "labels": (
                np.stack(self._label_window) if self._label_window
                else None
            ),
            "centroids": self._centroids.copy() if self._centroids else None,
            "previous_centroids": (
                None if self._previous_centroids is None
                else self._previous_centroids.copy()
            ),
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`get_state`.

        The centroid series is copied in, so the tracker never shares
        it with ``state``.  Format-1 checkpoints carry every slot's
        labels; only the last ``M`` rows are read.  Labels are read
        into :attr:`label_dtype` (format-1 and format-2 archives hold
        them as int64).
        """
        if int(state["num_clusters"]) != self.num_clusters:
            raise ConfigurationError(
                f"state holds K={state['num_clusters']}, tracker has "
                f"K={self.num_clusters}"
            )
        self._time = int(state["time"])
        self._dim = None if state["dim"] is None else int(state["dim"])
        labels = state["labels"]
        centroids = state["centroids"]
        if centroids is None:
            self._centroids.clear()
        else:
            self._centroids.load(np.asarray(centroids, dtype=float))
        self._label_window = deque(
            [] if labels is None else [
                np.array(row, dtype=self.label_dtype)
                for row in labels[-self.history_depth:]
            ],
            maxlen=self.history_depth,
        )
        previous = state["previous_centroids"]
        self._previous_centroids = (
            None if previous is None else np.asarray(previous, dtype=float)
        )
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng"]
        self._rng = rng

    def _identity_update(self, data: np.ndarray) -> ClusterAssignment:
        """K >= N: node i forms cluster i; extra clusters stay empty."""
        num_nodes = data.shape[0]
        labels = np.arange(num_nodes)
        if self.num_clusters == num_nodes:
            centroids = data.copy()
        else:
            centroids = self._value_centroids(data, labels)
        self._centroids.append(centroids)
        self._label_window.append(labels.astype(self.label_dtype))
        self._dim = data.shape[1]
        self._previous_centroids = centroids
        # A copy, as in update().
        assignment = ClusterAssignment(
            time=self._time, labels=labels, centroids=centroids.copy()
        )
        self._time += 1
        return assignment

    def _reindex(self, labels: np.ndarray) -> np.ndarray:
        """Re-map raw K-means labels onto persistent historical indices.

        The Eq. 10 contingency is computed directly from the label
        arrays (one ``bincount``), so re-indexing costs O(N + K³)
        instead of O(N·K) Python-level set operations per slot.
        """
        weights = similarity_matrix_from_labels(
            self.similarity,
            labels,
            list(self._label_window),
            self.num_clusters,
        )
        phi = maximum_weight_assignment(weights)
        return phi[np.asarray(labels, dtype=int)].astype(
            labels.dtype, copy=False
        )

    def _value_centroids(
        self, values: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Mean of ``values`` per cluster; empty clusters keep the previous
        centroid (or the global mean on the first step)."""
        dim = values.shape[1]
        centroids = np.zeros((self.num_clusters, dim))
        counts = np.bincount(labels, minlength=self.num_clusters)
        cluster_means(values, labels, counts, centroids)
        for j in np.flatnonzero(counts == 0).tolist():
            if self._previous_centroids is not None and (
                self._previous_centroids.shape[1] == dim
            ):
                centroids[j] = self._previous_centroids[j]
            else:
                centroids[j] = values.mean(axis=0)
        return centroids
