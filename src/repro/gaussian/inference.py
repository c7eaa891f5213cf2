"""Conditional-Gaussian inference of unobserved nodes.

Given monitors ``S`` reporting values ``x_S``, the remaining nodes ``U``
are inferred by Gaussian conditioning:

    x̂_U = μ_U + Σ_US · Σ_SS⁻¹ · (x_S − μ_S)

which is the minimum-mean-square-error linear estimator under the model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DataError
from repro.gaussian.covariance import GaussianModel


def infer_unobserved(
    model: GaussianModel,
    monitors: Sequence[int],
    observed: np.ndarray,
) -> np.ndarray:
    """Reconstruct the full measurement vector from monitor readings.

    Args:
        model: The fitted Gaussian model.
        monitors: Indices of the monitoring nodes ``S``.
        observed: Values measured at the monitors, aligned with
            ``monitors``.

    Returns:
        Array of shape ``(N,)``: monitor positions hold their observed
        values; all others hold the conditional mean.
    """
    num_nodes = model.num_nodes
    monitor_idx = np.asarray(list(monitors), dtype=int)
    values = np.asarray(observed, dtype=float)
    if monitor_idx.ndim != 1 or values.shape != monitor_idx.shape:
        raise DataError("monitors and observed must be 1-D and aligned")
    if monitor_idx.size == 0:
        return model.mean.copy()
    if monitor_idx.min() < 0 or monitor_idx.max() >= num_nodes:
        raise DataError("monitor index out of range")
    if np.unique(monitor_idx).size != monitor_idx.size:
        raise DataError("duplicate monitor indices")

    mask = np.zeros(num_nodes, dtype=bool)
    mask[monitor_idx] = True
    unobserved_idx = np.flatnonzero(~mask)

    out = np.empty(num_nodes)
    out[monitor_idx] = values
    if unobserved_idx.size == 0:
        return out

    sigma_ss = model.covariance[np.ix_(monitor_idx, monitor_idx)]
    sigma_us = model.covariance[np.ix_(unobserved_idx, monitor_idx)]
    residual = values - model.mean[monitor_idx]
    solved = np.linalg.solve(sigma_ss, residual)
    out[unobserved_idx] = model.mean[unobserved_idx] + sigma_us @ solved
    return out
