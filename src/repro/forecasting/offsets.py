"""Per-node offsets with α-clipping (Eq. 12, Sec. V-C).

The forecast for node ``i`` is the forecasted centroid of its predicted
cluster plus an offset

    ŝ_{i,t+h} = (1/(M'+1)) Σ_{m=0..M'} α_{t−m} · (z_{i,t−m} − c_{j,t−m})

where the scaling coefficient ``α ∈ (0, 1]`` is the largest value keeping
``c_j + α·(z_i − c_j)`` closest to centroid ``c_j`` among all centroids
(α = 1 when ``z_i`` already belongs to cluster ``j``).  The clipping
prevents the reconstructed value from crossing into a different cluster
than the one whose centroid is being forecast.

The α computation is vectorized over nodes with the node axis
innermost: :func:`estimate_offsets` walks the ``M' + 1`` window slots
oldest first, and each slot's boundary crossings are ``(K, N)`` arrays —
rival centroid on the outer axis, node on the inner one — built
coordinate by coordinate, so no numpy loop runs over ``d`` (1–2) or K
(3–5) alone.  Projections and norms sum their coordinates left to
right, which is how numpy sums a trailing axis of fewer than
:data:`~repro.clustering.kmeans.PAIRWISE_SUM_MIN` (8) terms; from 8
coordinates on numpy sums pairwise, so there a ``(K, N, d)``
broadcast and its trailing-axis sums are kept.  Either way the offsets
are bit-identical to the per-node loop ``estimate_offsets_reference``
that ``tests/reference_impl.py`` keeps.
Offsets are computed in float64 whatever ``PipelineConfig.dtype`` is.

A slot's terms depend on the node's target cluster only through the
gather, so a caller that forecasts slot after slot passes a *memo*:
each window slot's terms for every target cluster, computed once when
the slot first appears (see :func:`estimate_offsets`).
"""

from __future__ import annotations

from typing import MutableSequence, Optional, Sequence

import numpy as np

from repro.clustering.kmeans import PAIRWISE_SUM_MIN
from repro.exceptions import ConfigurationError, DataError

#: Nodes per block in :func:`_target_terms`.  The α kernel's
#: ``(K, K, block)`` temporaries then stay small enough to be cheap: at
#: N = 10,000, d = 2, K = 5 one whole-fleet block took about twice as
#: long as blocks of 1,024 nodes (6.4 against 3.1 ms on a 2-CPU box).
_TERMS_BLOCK = 1024


def _validate_clusters(idx: np.ndarray, num_clusters: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= num_clusters):
        bad = int(idx[(idx < 0) | (idx >= num_clusters)][0])
        raise ConfigurationError(
            f"cluster {bad} outside [0, {num_clusters})"
        )


def alpha_clip_batch(
    values: np.ndarray, centroids: np.ndarray, clusters: np.ndarray
) -> np.ndarray:
    """Vectorized α-clipping for many nodes against one centroid set.

    For every node ``i`` this computes the largest ``α ∈ (0, 1]`` keeping
    ``c_j + α(z_i − c_j)`` closest to centroid ``j = clusters[i]``: α = 1
    when ``z_i`` already lies in cluster ``j`` (or exactly on its
    centroid), otherwise the boundary-crossing α, floored at a small
    positive value so the offset never flips sign.

    Args:
        values: Stored measurements ``z``, shape ``(N, d)`` or ``(N,)``.
        centroids: All centroids, shape ``(K, d)`` or ``(K,)``.
        clusters: Target cluster index per node, shape ``(N,)``.

    Returns:
        α per node, shape ``(N,)``.
    """
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[:, np.newaxis]
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim == 1:
        cents = cents[:, np.newaxis]
    idx = np.asarray(clusters, dtype=int)
    _validate_clusters(idx, cents.shape[0])
    own = cents.T[:, idx]
    return _clipped_alphas(z.T - own, cents, own)


def _clipped_alphas(
    direction: np.ndarray, centroids: np.ndarray, own: np.ndarray
) -> np.ndarray:
    """Boundary-crossing α per node for one slot, ``direction.shape[1:]``.

    ``direction`` is ``z − c_j`` per node and ``own`` the matching
    centroid ``c_j``: one row per coordinate, node innermost —
    ``(d, N)`` for one target per node.  ``own`` may broadcast against
    ``direction``: with ``own`` of shape ``(d, K, 1)`` (every centroid
    as a target) and ``direction`` of shape ``(d, K, N)``, the result
    is α for every (target, node) pair, ``(K, N)``, while the rival
    displacements stay ``(K, K, 1)``.  ``centroids`` holds all K
    centroids, ``(K, d)``.
    """
    dim = direction.shape[0]
    if dim < PAIRWISE_SUM_MIN:
        # Per coordinate, the rival displacement u = c_k − c_j of every
        # (rival, node) pair, (K, N); projections direction·u and norms
        # ||u||² sum their coordinates left to right.
        rivals = [
            centroids[:, i].reshape((-1,) + (1,) * own[i].ndim) - own[i]
            for i in range(dim)
        ]
        projection = direction[0] * rivals[0]
        rival_norm_sq = rivals[0] * rivals[0]
        norm_sq = direction[0] * direction[0]
        for i in range(1, dim):
            projection += direction[i] * rivals[i]
            rival_norm_sq += rivals[i] * rivals[i]
            norm_sq += direction[i] * direction[i]
    else:
        # Coordinates last and contiguous, so each sum runs over a
        # contiguous trailing axis: pairwise, as in the reference.
        # Rivals lead: (K, …, d).
        rows = np.ascontiguousarray(np.moveaxis(direction, 0, -1))
        own_rows = np.ascontiguousarray(np.moveaxis(own, 0, -1))
        rivals = (
            centroids.reshape((-1,) + (1,) * (own.ndim - 1) + (dim,))
            - own_rows
        )
        projection = (rows * rivals).sum(axis=-1)
        rival_norm_sq = (rivals * rivals).sum(axis=-1)
        norm_sq = (rows * rows).sum(axis=-1)
    # Boundary: ||α·direction||² == ||α·direction − u||²
    #        ⇔ α == ||u||² / (2 · direction·u), relevant only when the
    # direction actually moves toward the rival (projection > 0); the own
    # cluster has u = 0 and is excluded the same way.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        boundary = rival_norm_sq / (2.0 * projection)
    boundary = np.where(projection > 0.0, boundary, np.inf)
    alphas = np.minimum(1.0, boundary.min(axis=0))
    alphas = np.maximum(alphas, 1e-12)
    return np.where(norm_sq == 0.0, 1.0, alphas)


def _target_terms(
    stored: np.ndarray, centroids: np.ndarray, *, clip: bool = True
) -> np.ndarray:
    """One slot's Eq. 12 terms ``α · (z_i − c_k)`` for every target k.

    Args:
        stored: The slot's stored measurements ``z``, ``(N, d)``.
        centroids: The slot's centroids, ``(K, d)``.
        clip: Scale by α (as :func:`estimate_offsets` does); when False
            the terms are the raw deviations ``z − c_k``.

    Returns:
        ``(d, K, N)`` float64: coordinate, target cluster, node.  Entry
        ``[:, k, i]`` is bit-identical to the term
        :func:`estimate_offsets` adds for node ``i`` when its forecast
        membership is ``k``.
    """
    z = np.asarray(stored, dtype=float)
    num_nodes = z.shape[0]
    z = z.reshape(num_nodes, -1).T
    dim = z.shape[0]
    cents = np.asarray(centroids, dtype=float).reshape(-1, dim)
    own = cents.T[:, :, np.newaxis]
    terms = np.empty((dim, cents.shape[0], num_nodes))
    # Block by block along the node axis: every node's terms are
    # independent of the others'.
    for start in range(0, num_nodes, _TERMS_BLOCK):
        nodes = slice(start, start + _TERMS_BLOCK)
        block = terms[:, :, nodes]
        np.subtract(z[:, np.newaxis, nodes], own, out=block)
        if clip:
            block *= _clipped_alphas(block, cents, own)
    return terms


def estimate_offsets(
    stored_history: Sequence[np.ndarray],
    centroid_history: Sequence[np.ndarray],
    memberships: np.ndarray,
    lookback: int,
    *,
    clip: bool = True,
    memo: Optional[MutableSequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Compute the per-node offsets ``ŝ`` of Eq. 12.

    The window is walked slot by slot, oldest first; each slot's α's are
    evaluated for all nodes at once — no Python-level per-node loops.

    Args:
        stored_history: Per-slot stored measurements ``z``, oldest first;
            each of shape ``(N, d)`` (or ``(N,)``).  Only the final
            ``lookback + 1`` slots are used.  A stacked ``(T, N, d)``
            array works too.
        centroid_history: Per-slot centroid arrays ``(K, d)`` aligned with
            ``stored_history``.
        memberships: Shape ``(N,)`` — the forecasted cluster ``j`` per
            node (from :func:`~repro.forecasting.membership.forecast_membership`).
        lookback: The look-back ``M'``.
        clip: Apply the α-clipping of Eq. 12 (the paper's rule).  When
            False the raw deviation ``z − c`` is averaged instead — used
            by the clipping ablation.
        memo: Each window slot's terms ``α · (z_i − c_k)`` for every
            target cluster k, ``(d, K, N)``, aligned with the tail of
            ``stored_history`` (``memo[-1]`` belongs to the newest slot)
            and computed with the same ``clip``; ``None`` marks a slot
            not computed yet.  The ``None`` entries of the
            window are filled in place, and each slot's offsets become
            a gather of the memberships' terms.  A caller that keeps
            the list across slots computes each slot's terms once.
            Without a memo every window slot is computed for the
            memberships' targets only.

    Returns:
        Offsets of shape ``(N, d)``.
    """
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if len(stored_history) != len(centroid_history):
        raise DataError(
            "stored_history and centroid_history lengths differ: "
            f"{len(stored_history)} vs {len(centroid_history)}"
        )
    if len(stored_history) == 0:
        raise DataError("histories are empty")
    window = min(lookback + 1, len(stored_history))
    memberships = np.asarray(memberships, dtype=int)
    first = np.asarray(stored_history[-window], dtype=float)
    num_nodes = first.shape[0]
    if memberships.shape != (num_nodes,):
        raise DataError(
            f"memberships must have shape ({num_nodes},), got {memberships.shape}"
        )
    dim = first.reshape(num_nodes, -1).shape[1]
    num_clusters = np.size(centroid_history[-window]) // dim
    _validate_clusters(memberships, num_clusters)
    # (d, N), node innermost.  Accumulated slot by slot, oldest first,
    # so the floating-point summation order matches the streaming
    # definition exactly.
    offsets = np.zeros((dim, num_nodes))
    if memo is None:
        for stored, centroids in zip(
            stored_history[-window:], centroid_history[-window:]
        ):
            z = np.asarray(stored, dtype=float).reshape(num_nodes, dim)
            cents = np.asarray(centroids, dtype=float).reshape(
                num_clusters, dim
            )
            own = cents.T[:, memberships]
            direction = z.T - own
            if clip:
                direction *= _clipped_alphas(direction, cents, own)
            offsets += direction
    else:
        if len(memo) < window:
            raise DataError(
                f"memo covers {len(memo)} slots, the window {window}"
            )
        # Flat (target, node) position of each node's term.
        cols = memberships * num_nodes + np.arange(num_nodes)
        shape = (dim, num_clusters, num_nodes)
        for m in range(-window, 0):
            terms = memo[m]
            if terms is None:
                terms = memo[m] = _target_terms(
                    stored_history[m], centroid_history[m], clip=clip
                )
            elif terms.shape != shape:
                raise DataError(
                    f"memo slot {m} holds {terms.shape} terms, the window "
                    f"needs {shape}"
                )
            offsets += terms.reshape(dim, -1).take(cols, axis=1)
    offsets /= window
    return np.ascontiguousarray(offsets.T)
