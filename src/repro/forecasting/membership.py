"""Forecasting future cluster membership (Sec. V-C).

At time ``t`` the paper predicts that node ``i`` will belong, at any
future step ``t + h``, to the cluster it occupied most frequently during
the look-back interval ``[t − M', t]`` (ties broken toward the most
recent occupancy).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataError


def forecast_membership(
    label_history: Sequence[np.ndarray], lookback: int
) -> np.ndarray:
    """Majority-vote membership forecast.

    Args:
        label_history: Per-slot label arrays, oldest first; each has shape
            ``(N,)``.  Only the last ``lookback + 1`` entries (the paper's
            ``[t − M', t]`` window) are used.  A stacked ``(T, N)`` array
            works too and is not copied.
        lookback: The look-back ``M'``.

    Returns:
        Array of shape ``(N,)``: the forecasted cluster of each node,
        in the window's integer dtype (int64 for anything else).
    """
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if len(label_history) == 0:
        raise DataError("label_history is empty")
    recent = label_history[-(lookback + 1):]
    num_nodes = np.shape(recent[0])[0]
    if any(np.shape(l) != (num_nodes,) for l in recent):
        raise DataError("label arrays in history have inconsistent shapes")
    # (W, N), in the labels' own integer dtype: the pipeline's uint8
    # windows compare and gather at an eighth of int64's bytes.
    window = np.asarray(recent)
    if window.dtype.kind not in "iu":
        window = window.astype(int)
    num_steps = window.shape[0]
    # counts[w, n]: how often node n's label at slot w occurs in the
    # window — a (W, W, N) equality with the node axis innermost, so the
    # cost does not depend on K.
    counts = (window[:, np.newaxis] == window[np.newaxis]).sum(
        axis=1, dtype=np.min_scalar_type(num_steps)
    )
    # The winning slot has the largest count, ties going to the most
    # recent slot; its label is the most frequent one, ties broken toward
    # the most recently occupied cluster, which keeps the forecast stable
    # under oscillation.  Slots run in increasing order, so a maximum
    # moves each node's winner to w exactly where w takes the lead.
    best = counts[0].copy()
    winner = np.zeros(num_nodes, dtype=np.intp)
    for w in range(1, num_steps):
        np.maximum(winner, (counts[w] >= best) * w, out=winner)
        np.maximum(best, counts[w], out=best)
    return np.take_along_axis(window, winner[np.newaxis], axis=0)[0]


def membership_stability(label_history: Sequence[np.ndarray]) -> float:
    """Fraction of nodes whose cluster did not change across the window.

    A diagnostic used in tests and ablations: values near 1 mean cluster
    identities persist, which is when centroid forecasting is meaningful.
    """
    if len(label_history) < 2:
        return 1.0
    stacked = np.stack([np.asarray(l, dtype=int) for l in label_history])
    stable = np.all(stacked == stacked[0], axis=0)
    return float(np.mean(stable))
