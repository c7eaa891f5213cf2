"""Spatial-correlation analysis (Sec. III, Fig. 1).

The paper's motivational experiment computes, for every pair of nodes,
the Pearson correlation of their full time series, and compares the
empirical CDF of those values between sensor-network data (strongly
correlated) and compute-cluster data (weakly correlated).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


def pairwise_correlations(trace: np.ndarray) -> np.ndarray:
    """All distinct pairwise Pearson correlations of node time series.

    Args:
        trace: Shape ``(T, N)``: one column per node.

    Returns:
        Array of length ``N·(N−1)/2`` with the upper-triangle
        correlations.  Nodes with zero variance are excluded from the
        pairs (their correlation is undefined).
    """
    data = np.asarray(trace, dtype=float)
    if data.ndim != 2:
        raise DataError(f"trace must be (T, N), got shape {data.shape}")
    if data.shape[0] < 2:
        raise DataError("need at least 2 time steps")
    std = data.std(axis=0)
    valid = np.flatnonzero(std > 1e-12)
    if valid.size < 2:
        raise DataError("fewer than 2 nodes with non-zero variance")
    subset = data[:, valid]
    corr = np.corrcoef(subset, rowvar=False)
    upper = np.triu_indices(corr.shape[0], k=1)
    return corr[upper]


def cdf_at(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at arbitrary ``points``."""
    v = np.sort(np.asarray(values, dtype=float))
    pts = np.asarray(points, dtype=float)
    if v.size == 0:
        raise DataError("values is empty")
    return np.searchsorted(v, pts, side="right") / v.size


def fraction_above(trace: np.ndarray, threshold: float) -> float:
    """Fraction of pairwise correlations above ``threshold``.

    The paper's Fig. 1 observation: for sensor data most correlations
    exceed 0.5, for cluster data most lie within (−0.5, 0.5).
    """
    corr = pairwise_correlations(trace)
    return float(np.mean(corr > threshold))
