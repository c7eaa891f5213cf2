"""Time-series statistics supporting ARIMA order selection (Sec. VI-A3).

Provides the differencing operators (regular and seasonal, with an
exact polynomial-based inverse used for multi-step forecast integration)
and the corrected Akaike information criterion (AICc) used by the paper's
grid search.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


def differencing_polynomial(d: int, seasonal_d: int, period: int) -> np.ndarray:
    """Coefficients of ``(1 − B)^d (1 − B^s)^D`` in increasing powers of B.

    ``w_t = Σ_k c_k x_{t−k}`` with ``c_0 = 1``.
    """
    if d < 0 or seasonal_d < 0:
        raise DataError("differencing orders must be >= 0")
    if seasonal_d > 0 and period < 2:
        raise DataError("seasonal differencing requires period >= 2")
    poly = np.array([1.0])
    for _ in range(d):
        poly = np.convolve(poly, np.array([1.0, -1.0]))
    if seasonal_d > 0:
        seasonal = np.zeros(period + 1)
        seasonal[0] = 1.0
        seasonal[period] = -1.0
        for _ in range(seasonal_d):
            poly = np.convolve(poly, seasonal)
    return poly


def difference(
    series: np.ndarray, d: int, seasonal_d: int = 0, period: int = 0
) -> np.ndarray:
    """Apply ``(1 − B)^d (1 − B^s)^D`` to a series.

    Returns the differenced series, shorter by ``d + D·s`` observations.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {x.shape}")
    poly = differencing_polynomial(d, seasonal_d, period)
    lag = poly.size - 1
    if x.size <= lag:
        raise DataError(
            f"series of length {x.size} too short for differencing lag {lag}"
        )
    if lag == 0:
        return x.copy()
    out = np.zeros(x.size - lag)
    for k, coeff in enumerate(poly):
        if coeff != 0.0:
            out += coeff * x[lag - k : x.size - k]
    return out


def undifference_forecasts(
    history: np.ndarray,
    differenced_forecasts: np.ndarray,
    d: int,
    seasonal_d: int = 0,
    period: int = 0,
) -> np.ndarray:
    """Integrate forecasts of a differenced series back to the original.

    Uses the exact recursion ``x_{t+h} = w_{t+h} − Σ_{k≥1} c_k x_{t+h−k}``
    where ``c`` is the differencing polynomial and forecasted ``x`` values
    feed back in as ``h`` grows.

    Args:
        history: Original (undifferenced) observations up to time ``t``.
        differenced_forecasts: Forecasts ``ŵ_{t+1..t+H}``.
        d, seasonal_d, period: Differencing specification.

    Returns:
        Forecasts ``x̂_{t+1..t+H}`` on the original scale.
    """
    x = np.asarray(history, dtype=float)
    w_hat = np.asarray(differenced_forecasts, dtype=float)
    poly = differencing_polynomial(d, seasonal_d, period)
    lag = poly.size - 1
    if lag == 0:
        return w_hat.copy()
    if x.size < lag:
        raise DataError(
            f"history of length {x.size} too short for differencing lag {lag}"
        )
    extended = list(x[-lag:])
    out = np.empty_like(w_hat)
    for h, w in enumerate(w_hat):
        value = w
        for k in range(1, lag + 1):
            if poly[k] != 0.0:
                value -= poly[k] * extended[-k]
        extended.append(value)
        out[h] = value
    return out


def aicc(sse: float, num_observations: int, num_parameters: int) -> float:
    """Corrected Akaike information criterion from a CSS fit.

    Uses the Gaussian profile log-likelihood ``−(n/2)·(log(2π σ̂²) + 1)``
    with ``σ̂² = SSE / n``, plus the small-sample correction term.  When
    the correction denominator ``n − k − 1`` is non-positive the criterion
    is infinite (the model is too rich for the sample).
    """
    if num_observations <= 0:
        raise DataError("num_observations must be positive")
    if sse < 0:
        raise DataError("sse must be non-negative")
    n = float(num_observations)
    k = float(num_parameters)
    sigma2 = max(sse / n, 1e-300)
    log_likelihood = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    aic = 2.0 * k - 2.0 * log_likelihood
    denom = n - k - 1.0
    if denom <= 0:
        return float("inf")
    return float(aic + (2.0 * k * (k + 1.0)) / denom)
