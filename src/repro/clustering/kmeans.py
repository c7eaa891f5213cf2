"""K-means clustering implemented from scratch.

The paper's dynamic clustering step (Sec. V-B) runs K-means on the stored
measurements ``z_t`` at every time slot.  We implement Lloyd's algorithm
with k-means++ seeding, multiple restarts, and deterministic empty-cluster
repair (the farthest point from its centroid is promoted to a new
centroid), which matters because per-step data in this application is
often low-dimensional and tightly bunched.

Every temporary runs along the node axis: the points are read as ``d``
contiguous coordinate columns of length N, distances are K rows of
length N, and the assignment is K − 1 compares of whole rows into
labels of the narrowest integer type that holds K − 1 (8 bits for
K <= 256).  The dimension ``d`` (1–2 in the paper's settings) and K
(3–5) never form the innermost axis of a numpy loop.  Each
floating-point operation keeps the order of the ``(N, K, d)`` broadcast
form kept in ``kmeans_reference`` (``tests/reference_impl.py``), so labels,
centroids, inertia, iteration counts and random draws are bit-identical
to it:

* a squared distance sums its coordinates left to right for ``d <= 2``
  — the order ``einsum`` uses there — and calls ``einsum`` per centroid
  for larger ``d``;
* k-means++ distances sum left to right for ``d < 8``, where numpy's
  row sum is still sequential, and keep the row sum from there on;
* a cluster mean sums its members in the order of the masked
  ``mean(axis=0)`` it replaces, which has two orders (see
  :func:`cluster_means`): pairwise over one column for ``d = 1``, and
  row after row from +0.0 for ``d >= 2``.

A Lloyd run also stops where the loop in the reference would find a
movement of exactly 0.0 and a positive tolerance stops it: once an
iteration's labels repeat those of an iteration that left no cluster
empty, whose update set every centroid to its cluster's (finite) mean,
the next update could only reproduce the same centroids.  That
assignment is then the final one too.

K-means always runs in float64, whatever ``PipelineConfig.dtype`` is: a
float32 K-means would relabel float32 sessions and break the
bit-identical resume of their checkpoints.
"""

from __future__ import annotations

import math
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


def _distance_rows(
    points: np.ndarray, columns: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distance of every point to every centroid,
    shape ``(K, N)``: one length-N row per centroid.

    ``columns`` is ``points.T`` (the ``(d, N)`` coordinate columns),
    which the ``d <= 2`` rows read; they run fastest contiguous.
    """
    dim = centroids.shape[1]
    if dim > 2:
        rows = np.empty((centroids.shape[0], points.shape[0]))
        for k, centroid in enumerate(centroids):
            diff = points - centroid
            np.einsum("nd,nd->n", diff, diff, out=rows[k])
        return rows
    rows = columns[0] - centroids[:, 0, np.newaxis]
    rows *= rows
    if dim == 2:
        second = columns[1] - centroids[:, 1, np.newaxis]
        second *= second
        rows += second
    return rows


def _nearest(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index and value of each point's smallest distance.

    The labels have the narrowest unsigned type that holds K − 1.  A
    strict ``<`` against the running minimum keeps ``argmin``'s rule
    that a tie goes to the first centroid.
    """
    label_type = np.min_scalar_type(rows.shape[0] - 1)
    nearest = rows[0].copy()
    labels = np.zeros(rows.shape[1], dtype=label_type)
    for k in range(1, rows.shape[0]):
        # Every label so far is below k, so the maximum sets exactly
        # the closer points to k (and, unlike a masked store, does not
        # branch per element).
        closer = rows[k] < nearest
        np.maximum(
            labels, closer.view(np.uint8) * label_type.type(k), out=labels
        )
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
    whose cluster is empty are left as they are.  Each mean matches
    ``points[labels == j].mean(axis=0)`` bit for bit, which sums in one
    of two orders:

    * ``d = 1``: pairwise, as numpy sums one contiguous run.  A stable
      sort lays each cluster's points out as a contiguous run, in their
      original order, and each run is summed on its own.
    * ``d >= 2``: row after row, starting from +0.0 (which only a
      cluster of all -0.0 notices).  ``np.bincount`` with a coordinate
      column as weights adds in exactly that order, one pass per
      coordinate for all clusters at once.

    The sums read the coordinate columns ``points.T``, fastest when
    ``points`` is the transpose of a C-contiguous ``(d, N)`` array.
    """
    columns = points.T
    num_clusters = counts.size
    if columns.shape[0] > 1:
        sums = np.array([  # (d, K)
            np.bincount(labels, weights=column, minlength=num_clusters)
            for column in columns
        ])
        filled = np.flatnonzero(counts)
        out[filled] = (sums[:, filled] / counts[filled]).T
        return
    # The narrowest label dtype: numpy's stable sort of 8- and 16-bit
    # integers is a radix sort.
    order = np.argsort(
        labels.astype(np.min_scalar_type(num_clusters - 1), copy=False),
        kind="stable",
    )
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    grouped = columns.take(order, axis=1)  # (1, N), C-contiguous
    for j in range(num_clusters):
        start, stop = bounds[j], bounds[j + 1]
        if start != stop:
            out[j] = grouped[:, start:stop].sum(axis=1) / (stop - start)


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
            free = np.ones(num_points, dtype=bool)
            free[chosen] = False
            candidates = np.flatnonzero(free)
            if not candidates.size:
                candidates = np.arange(num_points)
            nxt = int(rng.choice(candidates))
        elif math.isfinite(total):
            # rng.choice(num_points, p=closest_sq / total) without its
            # validation of p: the same cdf and the same single draw.
            cdf = (closest_sq / total).cumsum()
            cdf /= cdf[-1]
            nxt = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            # An overflowed distance: let choice raise its ValueError.
            nxt = int(rng.choice(num_points, p=closest_sq / total))
        chosen.append(nxt)
        dist_new = _squared_distances_to(points, nxt)
        closest_sq = np.minimum(closest_sq, dist_new)
    return points[chosen].copy()


def _repair_empty_clusters(
    points: np.ndarray,
    columns: np.ndarray,
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
    sq = _distance_rows(points, columns, centroids)
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

    columns = np.ascontiguousarray(data.T)
    # Repeated labels imply a movement of exactly 0.0, which stops a run
    # only below a positive tolerance; at tolerance <= 0 (or NaN) every
    # run goes on to max_iterations.
    may_settle = 0.0 < tolerance
    best: Optional[KMeansResult] = None
    runs = 1 if initial_centroids is not None else max(1, restarts)
    for _ in range(runs):
        if initial_centroids is not None:
            centroids = warm.copy()
        else:
            centroids = kmeans_plus_plus_init(data, num_clusters, rng)
        iterations = 0
        # The last iteration's labels, once its update left no cluster
        # empty and moved the centroids by a finite amount (so they are
        # finite, and repeating that update would move them by 0.0).
        settled: Optional[np.ndarray] = None
        final = False  # labels and nearest are the final assignment
        for iterations in range(1, max_iterations + 1):
            labels, nearest = _nearest(
                _distance_rows(data, columns, centroids)
            )
            if settled is not None and np.array_equal(labels, settled):
                final = True
                break
            counts = np.bincount(labels, minlength=num_clusters)
            full = bool(counts.all())
            if not full:
                labels, centroids = _repair_empty_clusters(
                    data, columns, labels, centroids, counts
                )
            new_centroids = centroids.copy()
            cluster_means(columns.T, labels, counts, new_centroids)
            movement = float(np.sum((new_centroids - centroids) ** 2))
            centroids = new_centroids
            if movement < tolerance:
                break
            if may_settle and full and math.isfinite(movement):
                settled = labels
            else:
                settled = None
        if not final:
            sq = _distance_rows(data, columns, centroids)
            labels, nearest = _nearest(sq)
            counts = np.bincount(labels, minlength=num_clusters)
            if not counts.all():
                labels, centroids = _repair_empty_clusters(
                    data, columns, labels, centroids, counts
                )
                nearest = sq[labels, np.arange(num_points)]
        result = KMeansResult(
            labels=labels.astype(np.intp), centroids=centroids,
            inertia=float(nearest.sum()), iterations=iterations,
        )
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
