"""AR(p) fitting via the Yule–Walker equations.

A fast, closed-form alternative to CSS optimization for pure
autoregressive models: the AR coefficients solve the Toeplitz system
``R φ = r`` built from sample autocorrelations.  Useful when the
controller retrains thousands of per-cluster models and the optimizer
cost of full ARIMA matters.

The module exposes *batched* kernels — :func:`fit_yule_walker_batch`
and :func:`ar_forecast_batch` — that fit and forecast ``S`` independent
series at once.  The :class:`~repro.forecasting.bank.YuleWalkerBank`
runs on them, and so does the per-series oracle its tests pin it to,
so a bank over ``S = K·d`` series is bit-identical to a loop of ``S``
scalar forecasters by construction.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataError


def _as_columns(series: np.ndarray) -> np.ndarray:
    """Validate a ``(T, S)`` batch and return it as contiguous ``(S, T)``.

    The transpose is copied to C order so per-row reductions (mean,
    dot-like sums) use the same contiguous inner loop as a standalone
    1-D array of the column — keeping a batch of S series bit-identical
    to S separate 1-D computations.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise DataError(f"series batch must be (T, S), got shape {x.shape}")
    return np.ascontiguousarray(x.T)


def fit_yule_walker_batch(series: np.ndarray, order: int) -> np.ndarray:
    """Solve the Yule–Walker equations for ``S`` series at once.

    Builds the sample autocorrelations of every column, stacks the
    ``S`` Toeplitz lag matrices and solves them in one batched
    ``np.linalg.solve`` call.

    Args:
        series: Observations, shape ``(T, S)`` — one series per column.
        order: AR order p >= 1.

    Returns:
        Coefficients ``φ_1..φ_p`` per series, shape ``(order, S)``.
        Constant columns and singular systems yield zero coefficients.
    """
    cols = _as_columns(series)
    num_series, length = cols.shape
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    if length <= order + 1:
        raise DataError(
            f"series of length {length} too short for AR({order})"
        )
    centered = cols - cols.mean(axis=1)[:, np.newaxis]
    denom = (centered * centered).sum(axis=1)  # (S,)
    constant = denom == 0.0

    # Autocorrelations rho[0..order] per series; constant columns get
    # the conventional [1, 0, ..., 0] (never used — they are forced to
    # zero coefficients below — but keeps the solve well-posed).
    rho = np.empty((order + 1, num_series))
    safe_denom = np.where(constant, 1.0, denom)
    for lag in range(order + 1):
        num = (centered[:, : length - lag] * centered[:, lag:]).sum(axis=1)
        rho[lag] = num / safe_denom
    rho[0, constant] = 1.0
    rho[1:, constant] = 0.0

    # Stacked Toeplitz systems: mats[s, i, j] = rho[|i - j|, s].
    lag_index = np.abs(np.arange(order)[:, np.newaxis] - np.arange(order))
    mats = np.ascontiguousarray(rho[lag_index].transpose(2, 0, 1))
    rhs = np.ascontiguousarray(rho[1 : order + 1].T)
    try:
        coefficients = np.linalg.solve(mats, rhs[:, :, np.newaxis])[
            :, :, 0
        ].T  # (order, S)
    except np.linalg.LinAlgError:
        # At least one singular system: fall back to per-series solves
        # (identical arithmetic per system) and zero the singular ones.
        coefficients = np.zeros((order, num_series))
        # repro: noqa KER-003(cold-path fallback for singular systems, identical arithmetic)
        for s in range(num_series):
            try:
                coefficients[:, s] = np.linalg.solve(mats[s], rhs[s])
            except np.linalg.LinAlgError:
                pass
    coefficients[:, constant] = 0.0
    return coefficients


def ar_forecast_batch(
    coefficients: np.ndarray,
    mean: np.ndarray,
    history: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Iterate the AR recurrence for ``S`` series at once.

    Args:
        coefficients: AR coefficients, shape ``(order, S)``.
        mean: Series means ``μ``, shape ``(S,)``.
        history: The last ``order`` observations per series, oldest
            first, shape ``(order, S)``.
        horizon: Steps ahead H >= 1.

    Returns:
        Forecasts, shape ``(H, S)``.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    mean = np.asarray(mean, dtype=float)
    order, num_series = coefficients.shape
    window = np.asarray(history, dtype=float) - mean
    if window.shape != (order, num_series):
        raise DataError(
            f"history must be ({order}, {num_series}), got {window.shape}"
        )
    window = window.copy()
    out = np.empty((horizon, num_series))
    for h in range(horizon):
        # Explicit accumulation over the (small) order keeps the
        # summation order independent of S, so batched forecasts match
        # per-series ones bitwise.
        value = np.zeros(num_series)
        for i in range(order):
            value += coefficients[i] * window[order - 1 - i]
        out[h] = value + mean
        window[:-1] = window[1:]
        window[-1] = value
    return out
