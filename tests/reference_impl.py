"""Reference (pre-vectorization) hot-path implementations.

These are the straightforward per-node Python-loop versions of the
fleet-scale hot path: α-clipped offset estimation (Eq. 12), the
similarity re-indexing contingency (Eq. 10–11) over explicit node-id
sets, and the majority-vote membership forecast (Sec. V-C), plus the
K-means of Sec. V-B in its ``(N, K, d)`` broadcast form and the
Hungarian assignment of Eq. 11 over numpy scalars.  The
package's implementations in :mod:`repro.forecasting.offsets`,
:mod:`repro.clustering.similarity`, :mod:`repro.forecasting.membership`,
:mod:`repro.clustering.kmeans` and :mod:`repro.clustering.matching`
are rewrites of these; the property
tests in ``tests/test_equivalence.py`` assert the rewrites are
*bit-identical* on randomized inputs, ``tests/test_clustering_similarity.py``
pins the set transcription of Eq. 10 itself, and the scaling benchmark
in ``benchmarks/test_bench_hot_path.py`` measures the speedup against
them.  It is not part of the package.

They are intentionally kept simple and obviously-correct; do not
optimize this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.clustering.kmeans import KMeansResult
from repro.exceptions import ConfigurationError, DataError
from repro.registry import SIMILARITY_MEASURES

_INF = float("inf")


def alpha_clip_reference(
    value: np.ndarray, centroids: np.ndarray, cluster: int
) -> float:
    """Per-node α-clipping via an explicit loop over rival centroids."""
    z = np.atleast_1d(np.asarray(value, dtype=float))
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim == 1:
        cents = cents[:, np.newaxis]
    num_clusters = cents.shape[0]
    if cluster < 0 or cluster >= num_clusters:
        raise ConfigurationError(
            f"cluster {cluster} outside [0, {num_clusters})"
        )
    direction = z - cents[cluster]
    norm_sq = float((direction * direction).sum())
    if norm_sq == 0.0:
        return 1.0
    alpha = 1.0
    for other in range(num_clusters):
        if other == cluster:
            continue
        u = cents[other] - cents[cluster]
        projection = float((direction * u).sum())
        if projection <= 0.0:
            continue  # moving along `direction` goes away from this rival
        # Boundary: ||α·direction||² == ||α·direction − u||²
        #        ⇔ α == ||u||² / (2 · direction·u)
        boundary = float((u * u).sum()) / (2.0 * projection)
        alpha = min(alpha, boundary)
    return float(max(alpha, 1e-12))


def estimate_offsets_reference(
    stored_history: Sequence[np.ndarray],
    centroid_history: Sequence[np.ndarray],
    memberships: np.ndarray,
    lookback: int,
    *,
    clip: bool = True,
) -> np.ndarray:
    """Eq. 12 offsets via the original window × node double loop."""
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if len(stored_history) != len(centroid_history):
        raise DataError(
            "stored_history and centroid_history lengths differ: "
            f"{len(stored_history)} vs {len(centroid_history)}"
        )
    if not stored_history:
        raise DataError("histories are empty")
    window = min(lookback + 1, len(stored_history))
    memberships = np.asarray(memberships, dtype=int)
    first = np.asarray(stored_history[-window], dtype=float)
    num_nodes = first.shape[0]
    if memberships.shape != (num_nodes,):
        raise DataError(
            f"memberships must have shape ({num_nodes},), got {memberships.shape}"
        )
    stored = [
        np.asarray(s, dtype=float).reshape(num_nodes, -1)
        for s in stored_history[-window:]
    ]
    cents = [
        np.asarray(c, dtype=float).reshape(-1, stored[0].shape[1])
        for c in centroid_history[-window:]
    ]
    dim = stored[0].shape[1]
    offsets = np.zeros((num_nodes, dim))
    for m in range(window):
        z_slot = stored[m]
        c_slot = cents[m]
        for i in range(num_nodes):
            j = memberships[i]
            diff = z_slot[i] - c_slot[j]
            alpha = alpha_clip_reference(z_slot[i], c_slot, j) if clip else 1.0
            offsets[i] += alpha * diff
    offsets /= window
    return offsets


def history_intersection(
    history: Sequence[Sequence[Set[int]]], cluster: int
) -> Set[int]:
    """Intersect cluster ``cluster`` across all partitions in ``history``.

    Args:
        history: The most recent partitions, ordered oldest → newest; each
            partition is a sequence of node-id sets indexed by cluster id.
        cluster: Historical cluster index ``j``.

    Returns:
        ``⋂_m history[m][cluster]`` — nodes that stayed in cluster ``j``
        through every remembered step.
    """
    if not history:
        raise DataError("history must contain at least one partition")
    result = set(history[0][cluster])
    for partition in history[1:]:
        result &= partition[cluster]
    return result


def intersection_similarity_matrix(
    new_clusters: Sequence[Set[int]],
    history: Sequence[Sequence[Set[int]]],
) -> np.ndarray:
    """Build the paper's similarity matrix ``w`` (Eq. 10).

    Args:
        new_clusters: The K clusters from this step's K-means run,
            indexed by ``k``.
        history: Up to ``M`` previous (re-indexed) partitions, oldest
            first; each partition is indexed by the historical id ``j``.

    Returns:
        Matrix of shape ``(K, K)`` with ``w[k, j]``.
    """
    num_clusters = len(new_clusters)
    if any(len(p) != num_clusters for p in history):
        raise DataError("all partitions must have the same number of clusters")
    weights = np.zeros((num_clusters, num_clusters))
    persistent = [
        history_intersection(history, j) for j in range(num_clusters)
    ]
    for k, new in enumerate(new_clusters):
        new_set = set(new)
        for j in range(num_clusters):
            weights[k, j] = len(new_set & persistent[j])
    return weights


def jaccard_similarity_matrix(
    new_clusters: Sequence[Set[int]],
    history: Sequence[Sequence[Set[int]]],
) -> np.ndarray:
    """Jaccard-index similarity matrix (the Fig. 11 alternative).

    ``w[k, j] = |C'_k ∩ P_j| / |C'_k ∪ P_j|`` where ``P_j`` is the
    intersection of historical cluster ``j`` over the remembered steps.
    """
    num_clusters = len(new_clusters)
    if any(len(p) != num_clusters for p in history):
        raise DataError("all partitions must have the same number of clusters")
    weights = np.zeros((num_clusters, num_clusters))
    persistent = [
        history_intersection(history, j) for j in range(num_clusters)
    ]
    for k, new in enumerate(new_clusters):
        new_set = set(new)
        for j in range(num_clusters):
            union = new_set | persistent[j]
            if union:
                weights[k, j] = len(new_set & persistent[j]) / len(union)
    return weights


#: Similarity name → its set-based transcription.
SET_MEASURES = {
    "intersection": intersection_similarity_matrix,
    "jaccard": jaccard_similarity_matrix,
}


def similarity_matrix(
    kind: str,
    new_clusters: Sequence[Set[int]],
    history: Sequence[Sequence[Set[int]]],
) -> np.ndarray:
    """Dispatch on a similarity name registered in SIMILARITY_MEASURES."""
    SIMILARITY_MEASURES.get(kind)  # an unknown name raises here
    return SET_MEASURES[kind](new_clusters, history)


def reindex_weights_reference(
    kind: str,
    new_labels: np.ndarray,
    label_history: Sequence[np.ndarray],
    num_clusters: int,
) -> np.ndarray:
    """Similarity matrix via explicit node-id set construction (Eq. 10).

    Builds the per-cluster node sets from the label arrays — exactly what
    :meth:`DynamicClusterTracker._reindex` did before the contingency
    rewrite — then delegates to the set-based similarity functions.
    """
    labels = np.asarray(new_labels, dtype=int)
    new_clusters: List[Set[int]] = [
        set(np.flatnonzero(labels == k).tolist())
        for k in range(num_clusters)
    ]
    partitions = [
        [
            set(np.flatnonzero(np.asarray(past, dtype=int) == j).tolist())
            for j in range(num_clusters)
        ]
        for past in label_history
    ]
    return similarity_matrix(kind, new_clusters, partitions)


def forecast_membership_reference(
    label_history: Sequence[np.ndarray], lookback: int
) -> np.ndarray:
    """Majority-vote membership forecast via a per-node Python loop."""
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if not label_history:
        raise DataError("label_history is empty")
    window = [
        np.asarray(l, dtype=int) for l in label_history[-(lookback + 1):]
    ]
    num_nodes = window[0].shape[0]
    if any(l.shape != (num_nodes,) for l in window):
        raise DataError("label arrays in history have inconsistent shapes")
    stacked = np.stack(window)  # (W, N)
    num_clusters = int(stacked.max()) + 1
    forecast = np.empty(num_nodes, dtype=int)
    for i in range(num_nodes):
        counts = np.bincount(stacked[:, i], minlength=num_clusters)
        best = counts.max()
        # Tie-break toward the most recently occupied cluster among the
        # maximal ones, which keeps the forecast stable under oscillation.
        candidates = np.flatnonzero(counts == best)
        if candidates.size == 1:
            forecast[i] = candidates[0]
        else:
            recent = stacked[::-1, i]
            for label in recent:
                if label in candidates:
                    forecast[i] = label
                    break
    return forecast


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(N, K)``."""
    diff = points[:, np.newaxis, :] - centroids[np.newaxis, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_plus_plus_init(
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
    closest_sq = np.sum((points - points[first]) ** 2, axis=1)
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
        dist_new = np.sum((points - points[nxt]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_new)
    return points[chosen].copy()


def _repair_empty_clusters(
    points: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reassign the farthest points to any empty clusters.

    Lloyd iterations can empty a cluster when K is close to N or data is
    degenerate.  For each empty cluster we promote the point farthest from
    its current centroid (a standard repair that keeps exactly K clusters).
    """
    num_clusters = centroids.shape[0]
    counts = np.bincount(labels, minlength=num_clusters)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return labels, centroids
    sq = _squared_distances(points, centroids)
    assigned_sq = sq[np.arange(points.shape[0]), labels]
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


def kmeans_reference(
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

    The pre-rewrite :func:`repro.clustering.kmeans.kmeans`, kept
    verbatim: ``(N, K, d)`` broadcast distances, ``argmin`` assignment
    and one masked mean per cluster.

    Args:
        points: Data of shape ``(N, d)`` or ``(N,)`` (promoted to d=1).
        num_clusters: Number of clusters K; must satisfy ``1 <= K <= N``.
        restarts: Independent k-means++ restarts; the lowest-inertia run
            wins.  Ignored when ``initial_centroids`` is given.
        max_iterations: Lloyd iteration cap per restart.
        tolerance: Stop when total centroid movement falls below this.
        rng: Random generator for seeding (fresh default if None).
        initial_centroids: Optional warm-start centroids of shape
            ``(K, d)``; used for the single run performed.

    Returns:
        The best :class:`KMeansResult` across restarts.
    """
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if data.ndim != 2:
        raise DataError(f"points must be (N, d), got shape {data.shape}")
    num_points = data.shape[0]
    if num_clusters < 1:
        raise ConfigurationError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > num_points:
        raise ConfigurationError(
            f"num_clusters={num_clusters} exceeds number of points {num_points}"
        )
    if rng is None:
        rng = np.random.default_rng()

    best: Optional[KMeansResult] = None
    runs = 1 if initial_centroids is not None else max(1, restarts)
    for _ in range(runs):
        if initial_centroids is not None:
            centroids = np.asarray(initial_centroids, dtype=float).copy()
            if centroids.shape != (num_clusters, data.shape[1]):
                raise ConfigurationError(
                    "initial_centroids must have shape "
                    f"({num_clusters}, {data.shape[1]}), got {centroids.shape}"
                )
        else:
            centroids = _kmeans_plus_plus_init(data, num_clusters, rng)
        labels = np.zeros(num_points, dtype=int)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            sq = _squared_distances(data, centroids)
            labels = np.argmin(sq, axis=1)
            labels, centroids = _repair_empty_clusters(data, labels, centroids)
            new_centroids = centroids.copy()
            for j in range(num_clusters):
                members = labels == j
                if members.any():
                    new_centroids[j] = data[members].mean(axis=0)
            movement = float(np.sum((new_centroids - centroids) ** 2))
            centroids = new_centroids
            if movement < tolerance:
                break
        sq = _squared_distances(data, centroids)
        labels = np.argmin(sq, axis=1)
        labels, centroids = _repair_empty_clusters(data, labels, centroids)
        inertia = float(sq[np.arange(num_points), labels].sum())
        result = KMeansResult(
            labels=labels, centroids=centroids, inertia=inertia,
            iterations=iterations,
        )
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def minimum_cost_assignment_reference(cost: np.ndarray) -> np.ndarray:
    """The Hungarian assignment of Eq. 11 over numpy scalar indexing."""
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"cost matrix must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise DataError("cost matrix contains NaN or infinite entries")
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)

    # Jonker–Volgenant style shortest augmenting path algorithm with
    # 1-based sentinel row/column 0.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # way[j] = predecessor column of column j on the augmenting path
    match = np.zeros(n + 1, dtype=int)  # match[j] = row matched to column j

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, _INF)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = matrix[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        # Augment along the path back to the sentinel.
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    assignment = np.zeros(n, dtype=int)
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return assignment
