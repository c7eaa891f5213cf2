"""K-means clustering implemented from scratch.

The paper's dynamic clustering step (Sec. V-B) runs K-means on the stored
measurements ``z_t`` at every time slot.  We implement Lloyd's algorithm
with k-means++ seeding, multiple restarts, and deterministic empty-cluster
repair (the farthest point from its centroid is promoted to a new
centroid), which matters because per-step data in this application is
often low-dimensional and tightly bunched.

Every temporary runs along the node axis: distances are K rows of
length N, the assignment is K − 1 compares of whole rows, and the
centroid update sums contiguous per-cluster segments of the points
sorted by label.  The dimension ``d`` (1–2 in the paper's settings) and
K (3–5) never form the innermost axis of a numpy loop.  Each
floating-point operation keeps the order of the ``(N, K, d)`` broadcast
form kept in :func:`repro.reference_impl.kmeans_reference`, so labels,
centroids and inertia are bit-identical to it:

* a squared distance sums its coordinates left to right for ``d <= 2``
  — the order ``einsum`` uses there — and calls ``einsum`` per centroid
  for larger ``d``;
* k-means++ distances sum left to right for ``d < 8``, where numpy's
  row sum is still sequential, and keep the row sum from there on;
* a cluster mean sums its segment in the order of the masked
  ``mean(axis=0)`` it replaces: pairwise for ``d = 1``, row after row
  from zero for larger ``d``.

K-means always runs in float64, whatever ``PipelineConfig.dtype`` is: a
float32 K-means would relabel float32 sessions and break the
bit-identical resume of their checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataError

#: From this many terms on, numpy adds a contiguous run pairwise, not
#: left to right; column code that sums coordinates one at a time
#: matches a row sum only below it.
PAIRWISE_SUM_MIN = 8


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one K-means run.

    Attributes:
        labels: Shape ``(N,)`` cluster id per point.
        centroids: Shape ``(K, d)`` cluster centers.
        inertia: Sum of squared distances of points to assigned centroids.
        iterations: Lloyd iterations performed.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int


def _distance_rows(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every point to every centroid,
    shape ``(K, N)``: one length-N row per centroid."""
    dim = centroids.shape[1]
    if dim > 2:
        rows = np.empty((centroids.shape[0], points.shape[0]))
        for k, centroid in enumerate(centroids):
            diff = points - centroid
            np.einsum("nd,nd->n", diff, diff, out=rows[k])
        return rows
    rows = points[:, 0] - centroids[:, 0, np.newaxis]
    rows *= rows
    if dim == 2:
        second = points[:, 1] - centroids[:, 1, np.newaxis]
        second *= second
        rows += second
    return rows


def _nearest(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index and value of each point's smallest distance.

    A strict ``<`` against the running minimum keeps ``argmin``'s rule
    that a tie goes to the first centroid.
    """
    nearest = rows[0].copy()
    labels = np.zeros(rows.shape[1], dtype=np.intp)
    for k in range(1, rows.shape[0]):
        # Every label so far is below k, so the maximum sets exactly
        # the closer points to k (and, unlike a masked store, does not
        # branch per element).
        np.maximum(labels, (rows[k] < nearest) * k, out=labels)
        np.minimum(nearest, rows[k], out=nearest)
    return labels, nearest


def cluster_means(
    points: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write each non-empty cluster's mean of ``points`` into ``out``.

    ``counts`` is ``np.bincount(labels, minlength=K)``; rows of ``out``
    whose cluster is empty are left as they are.  One stable sort lays
    each cluster's points out as a contiguous run of the ``(d, N)``
    transpose, in their original order, and each run is summed along
    the node axis in the order ``points[labels == j].mean(axis=0)``
    uses, so the means match it bit for bit: pairwise for ``d = 1``,
    row after row (from zero) for ``d >= 2``.
    """
    # The narrowest label dtype: numpy's stable sort of 8- and 16-bit
    # integers is a radix sort.
    order = np.argsort(
        labels.astype(np.min_scalar_type(counts.size - 1)), kind="stable"
    )
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    grouped = points.T.take(order, axis=1)  # (d, N), C-contiguous
    for j in range(counts.size):
        start, stop = bounds[j], bounds[j + 1]
        if start == stop:
            continue
        segment = grouped[:, start:stop]
        if points.shape[1] == 1:
            total = segment.sum(axis=1)
        else:
            # Sequential, like the row-by-row sum; that sum starts from
            # +0.0, which only a segment of all -0.0 notices.
            total = 0.0 + np.add.accumulate(segment, axis=1)[:, -1]
        out[j] = total / (stop - start)


def _squared_distances_to(points: np.ndarray, index: int) -> np.ndarray:
    """Squared distance of every point to ``points[index]``, shape
    ``(N,)``, summed in the order of ``np.sum(..., axis=1)``."""
    point = points[index]
    dim = points.shape[1]
    if dim >= PAIRWISE_SUM_MIN:
        return np.sum((points - point) ** 2, axis=1)
    total = (points[:, 0] - point[0]) ** 2
    for i in range(1, dim):
        total += (points[:, i] - point[i]) ** 2
    return total


def kmeans_plus_plus_init(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Select initial centroids with the k-means++ scheme.

    The first centroid is uniform over the points; each subsequent
    centroid is drawn with probability proportional to the squared
    distance from the nearest already-chosen centroid.
    """
    num_points = points.shape[0]
    first = int(rng.integers(num_points))
    chosen = [first]
    closest_sq = _squared_distances_to(points, first)
    for _ in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with a chosen centroid; pick
            # uniformly among the rest to keep K distinct slots.
            candidates = [i for i in range(num_points) if i not in chosen]
            if not candidates:
                candidates = list(range(num_points))
            nxt = int(rng.choice(candidates))
        else:
            probabilities = closest_sq / total
            nxt = int(rng.choice(num_points, p=probabilities))
        chosen.append(nxt)
        dist_new = _squared_distances_to(points, nxt)
        closest_sq = np.minimum(closest_sq, dist_new)
    return points[chosen].copy()


def _repair_empty_clusters(
    points: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reassign the farthest points to any empty clusters.

    Lloyd iterations can empty a cluster when K is close to N or data is
    degenerate.  For each empty cluster we promote the point farthest from
    its current centroid (a standard repair that keeps exactly K clusters).
    ``counts`` (the label counts) is updated in place.
    """
    empty = np.flatnonzero(counts == 0)
    sq = _distance_rows(points, centroids)
    assigned_sq = sq[labels, np.arange(points.shape[0])]
    order = np.argsort(-assigned_sq)
    used = set()
    for cluster in empty:
        for idx in order:
            idx = int(idx)
            if idx in used:
                continue
            # Only steal from clusters that will stay non-empty.
            if counts[labels[idx]] > 1:
                used.add(idx)
                counts[labels[idx]] -= 1
                labels = labels.copy()
                labels[idx] = cluster
                counts[cluster] += 1
                centroids = centroids.copy()
                centroids[cluster] = points[idx]
                break
    return labels, centroids


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    *,
    restarts: int = 3,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    rng: Optional[np.random.Generator] = None,
    initial_centroids: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Run K-means with k-means++ seeding and multiple restarts.

    Points and centroids are float64 whatever their input dtype.

    Args:
        points: Data of shape ``(N, d)`` or ``(N,)`` (promoted to d=1).
            Every value must be finite.
        num_clusters: Number of clusters K; must satisfy ``1 <= K <= N``.
        restarts: Independent k-means++ restarts; the lowest-inertia run
            wins.  Ignored when ``initial_centroids`` is given.
        max_iterations: Lloyd iteration cap per restart.
        tolerance: Stop when total centroid movement falls below this.
        rng: Random generator for seeding (fresh default if None).
        initial_centroids: Optional warm-start centroids of shape
            ``(K, d)``, all finite; used for the single run performed.

    Returns:
        The best :class:`KMeansResult` across restarts.

    Raises:
        DataError: ``points`` is not 1-D or 2-D, or ``points`` or
            ``initial_centroids`` hold NaN or ±inf.
    """
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if data.ndim != 2:
        raise DataError(f"points must be (N, d), got shape {data.shape}")
    if not np.isfinite(data).all():
        raise DataError("points contain NaN or infinite values")
    num_points = data.shape[0]
    if num_clusters < 1:
        raise ConfigurationError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > num_points:
        raise ConfigurationError(
            f"num_clusters={num_clusters} exceeds number of points {num_points}"
        )
    if initial_centroids is not None:
        warm = np.asarray(initial_centroids, dtype=float)
        if warm.shape != (num_clusters, data.shape[1]):
            raise ConfigurationError(
                "initial_centroids must have shape "
                f"({num_clusters}, {data.shape[1]}), got {warm.shape}"
            )
        if not np.isfinite(warm).all():
            raise DataError("initial_centroids contain NaN or infinite values")
    if rng is None:
        rng = np.random.default_rng()

    best: Optional[KMeansResult] = None
    runs = 1 if initial_centroids is not None else max(1, restarts)
    for _ in range(runs):
        if initial_centroids is not None:
            centroids = warm.copy()
        else:
            centroids = kmeans_plus_plus_init(data, num_clusters, rng)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            labels, _ = _nearest(_distance_rows(data, centroids))
            counts = np.bincount(labels, minlength=num_clusters)
            if not counts.all():
                labels, centroids = _repair_empty_clusters(
                    data, labels, centroids, counts
                )
            new_centroids = centroids.copy()
            cluster_means(data, labels, counts, new_centroids)
            movement = float(np.sum((new_centroids - centroids) ** 2))
            centroids = new_centroids
            if movement < tolerance:
                break
        sq = _distance_rows(data, centroids)
        labels, nearest = _nearest(sq)
        counts = np.bincount(labels, minlength=num_clusters)
        if counts.all():
            inertia = float(nearest.sum())
        else:
            labels, centroids = _repair_empty_clusters(
                data, labels, centroids, counts
            )
            inertia = float(sq[labels, np.arange(num_points)].sum())
        result = KMeansResult(
            labels=labels, centroids=centroids, inertia=inertia,
            iterations=iterations,
        )
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
