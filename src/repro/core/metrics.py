"""Error metrics from Sec. IV of the paper.

The paper defines three related quantities:

* ``RMSE(t, h)`` (Eq. 3): instantaneous root-mean-square error of the
  per-node estimates ``x̂_{i,t+h}`` against the true values ``x_{i,t+h}``,
  averaged over nodes.
* ``RMSE(T, h)`` (Eq. 4): the time-average of the squared instantaneous
  errors over ``T`` steps, square-rooted afterwards.
* The *intermediate RMSE* (Sec. VI-C): the same computation where the
  per-node estimate is the centroid of the node's cluster with no per-node
  offset — it measures pure clustering quality.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import DataError


def instantaneous_rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Compute ``RMSE(t, h)`` per Eq. 3.

    Args:
        estimates: Array of shape ``(N, d)`` holding ``x̂_{i,t+h}`` for
            every node ``i``, or 1-D of shape ``(N,)`` for ``N``
            scalar-valued nodes.  2-D input is always interpreted as
            ``(N, d)`` — in particular ``(1, d)`` is one node with a
            d-vector measurement, not ``d`` scalar nodes.
        truth: Array of the same shape holding the true ``x_{i,t+h}``.

    Returns:
        ``sqrt((1/N) * sum_i ||x̂_i − x_i||²)``.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise DataError(
            f"estimate shape {est.shape} != truth shape {tru.shape}"
        )
    if est.ndim <= 1:
        # Scalar → one node; (N,) vector → N scalar-valued nodes.
        est = est.reshape(-1, 1)
        tru = tru.reshape(-1, 1)
    num_nodes = est.shape[0]
    sq = np.sum((est - tru) ** 2, axis=tuple(range(1, est.ndim)))
    return float(np.sqrt(np.sum(sq) / num_nodes))


def instantaneous_rmse_batch(
    estimates: np.ndarray, truth: np.ndarray
) -> np.ndarray:
    """Per-slot ``RMSE(t, h)`` for a whole trajectory at once.

    Vectorized twin of :func:`instantaneous_rmse` over stacked slots:
    one array operation instead of one Python call per slot.

    Args:
        estimates: Shape ``(T, N, d)`` (or ``(T, N)`` for scalar nodes).
        truth: Array of the same shape.

    Returns:
        Shape ``(T,)`` of per-slot RMSE values, each identical to
        calling :func:`instantaneous_rmse` on that slot.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise DataError(
            f"estimate shape {est.shape} != truth shape {tru.shape}"
        )
    if est.ndim == 2:
        est = est[:, :, np.newaxis]
        tru = tru[:, :, np.newaxis]
    if est.ndim != 3:
        raise DataError(
            f"expected (T, N, d) or (T, N) stacks, got shape {est.shape}"
        )
    num_nodes = est.shape[1]
    sq = ((est - tru) ** 2).sum(axis=2).sum(axis=1)
    return np.sqrt(sq / num_nodes)


def time_averaged_rmse(instantaneous: Iterable[float]) -> float:
    """Compute ``RMSE(T, h)`` per Eq. 4 from instantaneous RMSE values.

    The average is taken over the *squared* errors, then square-rooted —
    note this differs from the mean of the RMSE values themselves.
    """
    values = np.asarray(list(instantaneous), dtype=float)
    if values.size == 0:
        raise DataError("need at least one instantaneous RMSE value")
    return float(np.sqrt(np.mean(values**2)))


def intermediate_rmse(
    measurements: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> float:
    """RMSE between measurements and their assigned cluster centroids.

    This is the "intermediate RMSE" of Sec. VI-C: each node's estimate is
    the centroid of the cluster it belongs to, with no per-node offset.

    Args:
        measurements: Shape ``(N, d)`` or ``(N,)``.
        labels: Shape ``(N,)`` cluster ids.
        centroids: Shape ``(K, d)`` or ``(K,)``.
    """
    data = np.asarray(measurements, dtype=float)
    cents = np.asarray(centroids, dtype=float)
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if cents.ndim == 1:
        cents = cents[:, np.newaxis]
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != data.shape[0]:
        raise DataError(
            f"{labels.shape[0]} labels for {data.shape[0]} measurements"
        )
    assigned = cents[labels]
    return instantaneous_rmse(assigned, data)


def standard_deviation_bound(trace: np.ndarray) -> float:
    """Error upper bound of an offline long-term-statistics forecaster.

    The paper (Sec. VI-D1) uses the standard deviation of all resource
    utilizations over time as the error an offline mechanism would incur
    if it forecast every node with its long-term mean.  For a trace of
    shape ``(T, N)`` this is ``sqrt(mean_i var_t(x_{i,t}))`` — the RMSE of
    per-node mean predictions.
    """
    arr = np.asarray(trace, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise DataError(f"expected (T, N) trace, got shape {arr.shape}")
    per_node_var = arr.var(axis=0)
    return float(np.sqrt(per_node_var.mean()))
