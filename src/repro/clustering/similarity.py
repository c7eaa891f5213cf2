"""Cluster-similarity measures used for re-indexing (Sec. V-B, Fig. 11).

The paper's measure (Eq. 10) counts the nodes that appear simultaneously
in a new K-means cluster and in the same historical cluster index across
the last ``M`` steps:

    w_{k,j} = | C'_{k,t} ∩ ⋂_{m=1..min(M, t−1)} C_{j,t−m} |

A normalized Jaccard-index variant (used by Greene et al. for community
matching, and compared against in Fig. 11) is also provided.

Both operate on ``(N,)`` label arrays and build the full ``(K, K)``
contingency through one :func:`numpy.bincount`, with no per-node Python
work, which is what the per-slot re-indexing of a fleet-scale tracker
uses.  The test suite keeps the direct transcription of Eq. 10 on
explicit node-id sets (``tests/reference_impl.py``) and pins these
functions bit-identical to it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.registry import SIMILARITY_MEASURES, register_similarity


def _stack_label_history(
    label_history: Sequence[np.ndarray],
) -> np.ndarray:
    """Stack per-slot label arrays into ``(M, N)``.

    Partitions of different sizes (the fleet grew or shrank within the
    window) are right-padded with ``-1`` — node ids absent from a slot's
    partition belong to no cluster there, matching the set semantics.
    """
    if not len(label_history):
        raise DataError("history must contain at least one partition")
    arrays = [np.asarray(labels, dtype=int) for labels in label_history]
    for arr in arrays:
        if arr.ndim != 1:
            raise DataError(
                f"label arrays must be 1-D per slot, got shape {arr.shape}"
            )
    width = max(arr.shape[0] for arr in arrays)
    if all(arr.shape[0] == width for arr in arrays):
        return np.stack(arrays)
    stacked = np.full((len(arrays), width), -1, dtype=int)
    for m, arr in enumerate(arrays):
        stacked[m, : arr.shape[0]] = arr
    return stacked


def _persistent_from_stack(stacked: np.ndarray) -> np.ndarray:
    base = stacked[0]
    stable = (stacked == base).all(axis=0)
    return np.where(stable, base, -1)


def persistent_labels(label_history: Sequence[np.ndarray]) -> np.ndarray:
    """Per-node persistent cluster over a window of label arrays.

    Node ``i`` belongs to the persistent set ``P_j = ⋂_m C_{j,t−m}``
    exactly when its label equals ``j`` in *every* remembered partition —
    so each node has at most one persistent cluster.

    Args:
        label_history: The most recent re-indexed label arrays (each of
            shape ``(N,)``), ordered oldest → newest.  Arrays may differ
            in length when the fleet size changed; a node missing from
            any slot is not persistent.

    Returns:
        The persistent cluster of each node, or ``-1`` for nodes whose
        cluster changed (or that were absent) within the window; length
        is the widest partition in the window.
    """
    return _persistent_from_stack(_stack_label_history(label_history))


def _contingency(
    new_labels: np.ndarray, persistent: np.ndarray, num_clusters: int
) -> np.ndarray:
    """``(K, K)`` counts of nodes with ``new == k`` and ``persistent == j``.

    Node ids beyond either array's length exist only on one side and
    can never be in an intersection, so only the common prefix counts.
    """
    common = min(new_labels.shape[0], persistent.shape[0])
    mask = persistent[:common] >= 0
    flat = new_labels[:common][mask] * num_clusters + persistent[:common][mask]
    counts = np.bincount(flat, minlength=num_clusters * num_clusters)
    return counts.reshape(num_clusters, num_clusters).astype(float)


def intersection_similarity_from_labels(
    new_labels: np.ndarray,
    label_history: Sequence[np.ndarray],
    num_clusters: int,
) -> np.ndarray:
    """Eq. 10 similarity matrix from label arrays via one bincount.

    Args:
        new_labels: This step's raw K-means labels, shape ``(N,)``.
        label_history: Up to ``M`` previous re-indexed label arrays,
            oldest first.
        num_clusters: K (labels must lie in ``[0, K)``).

    Returns:
        Matrix of shape ``(K, K)`` with ``w[k, j]``.
    """
    labels, persistent = _validated_labels(
        new_labels, label_history, num_clusters
    )
    return _contingency(labels, persistent, num_clusters)


def jaccard_similarity_from_labels(
    new_labels: np.ndarray,
    label_history: Sequence[np.ndarray],
    num_clusters: int,
) -> np.ndarray:
    """Jaccard similarity matrix from label arrays (Fig. 11 variant)."""
    labels, persistent = _validated_labels(
        new_labels, label_history, num_clusters
    )
    intersection = _contingency(labels, persistent, num_clusters)
    new_sizes = np.bincount(labels, minlength=num_clusters).astype(float)
    persistent_sizes = np.bincount(
        persistent[persistent >= 0], minlength=num_clusters
    ).astype(float)
    union = new_sizes[:, np.newaxis] + persistent_sizes[np.newaxis, :]
    union -= intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(union > 0, intersection / union, 0.0)
    return weights


def _validated_labels(
    new_labels: np.ndarray,
    label_history: Sequence[np.ndarray],
    num_clusters: int,
) -> Tuple[np.ndarray, np.ndarray]:
    if num_clusters < 1:
        raise ConfigurationError(
            f"num_clusters must be >= 1, got {num_clusters}"
        )
    labels = np.asarray(new_labels, dtype=int)
    if labels.ndim != 1:
        raise DataError(
            f"new_labels must be 1-D, got shape {labels.shape}"
        )
    stacked = _stack_label_history(label_history)
    if labels.size and (labels.min() < 0 or labels.max() >= num_clusters):
        raise DataError(
            f"new_labels must lie in [0, {num_clusters}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    # -1 is the padding sentinel for absent node ids; anything below it
    # or at/above K cannot come from a valid partition.
    if stacked.size and (stacked.min() < -1 or stacked.max() >= num_clusters):
        raise DataError(
            f"history labels must lie in [0, {num_clusters}), got range "
            f"[{stacked.min()}, {stacked.max()}]"
        )
    return labels, _persistent_from_stack(stacked)


def similarity_matrix_from_labels(
    kind: str,
    new_labels: np.ndarray,
    label_history: Sequence[np.ndarray],
    num_clusters: int,
) -> np.ndarray:
    """Dispatch on a similarity name registered in SIMILARITY_MEASURES."""
    return SIMILARITY_MEASURES.get(kind)(
        new_labels, label_history, num_clusters
    )


register_similarity("intersection")(intersection_similarity_from_labels)
register_similarity("jaccard")(jaccard_similarity_from_labels)
