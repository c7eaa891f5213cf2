"""Exponential-smoothing forecasters (the paper's "etc." models).

Sec. V-C notes the per-cluster forecasting model "can include ARIMA,
LSTM, etc.".  This module adds the classical exponential-smoothing
family, which sits between sample-and-hold and ARIMA in cost:

* ``ses`` — level only, run by :class:`~repro.forecasting.bank.
  ExponentialBank` on the kernels below.
* :class:`HoltLinear` — level + trend (damped optional).
* :class:`HoltWinters` — level + trend + additive seasonality, suitable
  for the diurnal structure of cluster workloads.

Smoothing parameters are fitted by minimizing the in-sample one-step
sum of squared errors: SES's one weight with the bounded Brent method
of :func:`_bounded_brent`, in this module, and Holt's and
Holt–Winters' with scipy's L-BFGS-B.  scipy therefore loads at the
first Holt or Holt–Winters fit, never at an SES fit.

The EWMA level recurrence is exposed as the batched kernel
:func:`ewma_run` (and the fitted weight as :func:`fit_ses_alpha`),
which the :class:`~repro.forecasting.bank.ExponentialBank` runs over
``S = K·d`` series at once.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.base import Forecaster
from repro.registry import register_forecaster


def ewma_run(
    series: np.ndarray, alpha: Union[float, np.ndarray]
) -> np.ndarray:
    """Final EWMA level of ``S`` series run in lockstep.

    Iterates ``l_t = α·y_t + (1−α)·l_{t−1}`` from ``l_0 = y_0`` over
    every column at once; element-wise ops keep each column's
    arithmetic identical to a scalar run of that column.

    Args:
        series: Observations, shape ``(T, S)`` — one series per column.
        alpha: Smoothing weight(s): a scalar or shape ``(S,)``.

    Returns:
        The level after the last observation, shape ``(S,)``.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise DataError(f"series batch must be (T, S), got shape {x.shape}")
    if x.shape[0] == 0:
        raise DataError("series is empty")
    level = x[0].copy()
    for t in range(1, x.shape[0]):
        level = alpha * x[t] + (1.0 - alpha) * level
    return level


def _bounded_brent(
    func: Callable[[float], float], x1: float, x2: float
) -> float:
    """Minimize ``func`` on ``[x1, x2]`` by Brent's bounded method.

    A line-for-line port of ``_minimize_scalar_bounded`` in scipy
    1.17.1 (scipy's ``fminbound``; Brent, *Algorithms for Minimization
    without Derivatives*, 1973) with its defaults, ``xatol = 1e-5`` and
    at most 500 evaluations, minus its printing and result object.  It
    evaluates ``func`` at the same points in the same order, each a
    ``np.float64``, and returns the same minimizer bit for bit
    (``tests/test_exponential.py`` pins both against scipy).
    """
    xatol = 1e-5
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for a parabolic fit.
        if np.abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Is the parabola acceptable?
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True

        if golden:  # a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf


def ses_sse(alpha: float, series: np.ndarray) -> float:
    """In-sample one-step SSE of SES weight ``alpha`` on a 1-D series:
    the objective :func:`fit_ses_alpha` minimizes."""
    level = series[0]
    sse = 0.0
    for value in series[1:]:
        sse += (value - level) ** 2
        level = alpha * value + (1.0 - alpha) * level
    return sse


def fit_ses_alpha(series: np.ndarray) -> float:
    """The SES weight minimizing the in-sample one-step SSE (1-D input).

    The bounded scalar optimization is inherently per-series (each
    series has its own objective landscape), so banks call this once
    per column; the level recurrence itself is batched in
    :func:`ewma_run`.  The minimizer is :func:`_bounded_brent`, so an
    SES fit loads no scipy.
    """
    return float(_bounded_brent(lambda a: ses_sse(a, series), 1e-4, 1.0))


class HoltLinear(Forecaster):
    """Holt's linear method: level + (optionally damped) trend.

    Args:
        damping: Trend damping φ in (0, 1]; 1 means undamped.
    """

    def __init__(self, damping: float = 0.98) -> None:
        super().__init__()
        if not 0.0 < damping <= 1.0:
            raise ConfigurationError(f"damping must be in (0, 1], got {damping}")
        self.damping = damping
        self.alpha = 0.5
        self.beta = 0.1
        self._level = 0.0
        self._trend = 0.0

    def _run(
        self, params: Tuple[float, float], series: np.ndarray
    ) -> Tuple[float, float, float]:
        alpha, beta = params
        phi = self.damping
        level = series[0]
        trend = series[1] - series[0] if series.size > 1 else 0.0
        sse = 0.0
        for value in series[1:]:
            prediction = level + phi * trend
            sse += (value - prediction) ** 2
            new_level = alpha * value + (1.0 - alpha) * prediction
            trend = beta * (new_level - level) + (1.0 - beta) * phi * trend
            level = new_level
        return sse, level, trend

    def _fit(self, series: np.ndarray) -> None:
        if series.size < 2:
            raise DataError("HoltLinear needs at least 2 observations")
        from scipy import optimize

        result = optimize.minimize(
            lambda p: self._run((p[0], p[1]), series)[0],
            np.array([0.5, 0.1]),
            method="L-BFGS-B",
            bounds=[(1e-4, 1.0), (1e-4, 1.0)],
        )
        self.alpha, self.beta = (float(result.x[0]), float(result.x[1]))
        _, self._level, self._trend = self._run(
            (self.alpha, self.beta), series
        )

    def _update(self, value: float) -> None:
        if not self.is_fitted:
            return
        phi = self.damping
        prediction = self._level + phi * self._trend
        new_level = self.alpha * value + (1.0 - self.alpha) * prediction
        self._trend = (
            self.beta * (new_level - self._level)
            + (1.0 - self.beta) * phi * self._trend
        )
        self._level = new_level

    def _forecast(self, horizon: int) -> np.ndarray:
        phi = self.damping
        # Damped-trend forecast: l + (φ + φ² + ... + φ^h) b
        weights = np.cumsum(phi ** np.arange(1, horizon + 1))
        return self._level + weights * self._trend

    def _state(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "level": float(self._level),
            "trend": float(self._trend),
        }

    def _load_state(self, state: dict) -> None:
        self.alpha = float(state["alpha"])
        self.beta = float(state["beta"])
        self._level = float(state["level"])
        self._trend = float(state["trend"])


class HoltWinters(Forecaster):
    """Additive Holt–Winters: level + trend + seasonal component.

    Args:
        period: Season length (e.g. slots per day); must be >= 2.
        damping: Trend damping φ in (0, 1].
    """

    def __init__(self, period: int, damping: float = 0.98) -> None:
        super().__init__()
        if period < 2:
            raise ConfigurationError(f"period must be >= 2, got {period}")
        if not 0.0 < damping <= 1.0:
            raise ConfigurationError(f"damping must be in (0, 1], got {damping}")
        self.period = period
        self.damping = damping
        self.alpha = 0.3
        self.beta = 0.05
        self.gamma_s = 0.1
        self._level = 0.0
        self._trend = 0.0
        self._seasonal: Optional[np.ndarray] = None
        self._season_index = 0

    def _initial_state(
        self, series: np.ndarray
    ) -> Tuple[float, float, np.ndarray]:
        m = self.period
        first = series[:m]
        level = float(first.mean())
        if series.size >= 2 * m:
            second = series[m : 2 * m]
            trend = float((second.mean() - first.mean()) / m)
        else:
            trend = 0.0
        seasonal = first - level
        return level, trend, seasonal

    def _run(
        self, params: Tuple[float, float, float], series: np.ndarray
    ) -> Tuple[float, float, float, np.ndarray, int]:
        alpha, beta, gamma = params
        phi = self.damping
        m = self.period
        level, trend, seasonal = self._initial_state(series)
        seasonal = seasonal.copy()
        sse = 0.0
        for t in range(m, series.size):
            s_idx = t % m
            prediction = level + phi * trend + seasonal[s_idx]
            error = series[t] - prediction
            sse += error**2
            new_level = alpha * (series[t] - seasonal[s_idx]) + (
                1.0 - alpha
            ) * (level + phi * trend)
            trend = beta * (new_level - level) + (1.0 - beta) * phi * trend
            seasonal[s_idx] = gamma * (series[t] - new_level) + (
                1.0 - gamma
            ) * seasonal[s_idx]
            level = new_level
        return sse, level, trend, seasonal, series.size % m

    def _fit(self, series: np.ndarray) -> None:
        if series.size < 2 * self.period:
            raise DataError(
                f"HoltWinters(period={self.period}) needs at least "
                f"{2 * self.period} observations, got {series.size}"
            )
        from scipy import optimize

        result = optimize.minimize(
            lambda p: self._run((p[0], p[1], p[2]), series)[0],
            np.array([0.3, 0.05, 0.1]),
            method="L-BFGS-B",
            bounds=[(1e-4, 1.0)] * 3,
        )
        self.alpha, self.beta, self.gamma_s = (float(x) for x in result.x)
        (_, self._level, self._trend,
         self._seasonal, self._season_index) = self._run(
            (self.alpha, self.beta, self.gamma_s), series
        )

    def _update(self, value: float) -> None:
        if not self.is_fitted or self._seasonal is None:
            return
        phi = self.damping
        s_idx = self._season_index
        new_level = self.alpha * (value - self._seasonal[s_idx]) + (
            1.0 - self.alpha
        ) * (self._level + phi * self._trend)
        self._trend = (
            self.beta * (new_level - self._level)
            + (1.0 - self.beta) * phi * self._trend
        )
        self._seasonal[s_idx] = self.gamma_s * (value - new_level) + (
            1.0 - self.gamma_s
        ) * self._seasonal[s_idx]
        self._level = new_level
        self._season_index = (s_idx + 1) % self.period

    def _forecast(self, horizon: int) -> np.ndarray:
        assert self._seasonal is not None
        phi = self.damping
        weights = np.cumsum(phi ** np.arange(1, horizon + 1))
        out = np.empty(horizon)
        for h in range(1, horizon + 1):
            s_idx = (self._season_index + h - 1) % self.period
            out[h - 1] = (
                self._level + weights[h - 1] * self._trend
                + self._seasonal[s_idx]
            )
        return out

    def _state(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma_s": self.gamma_s,
            "level": float(self._level),
            "trend": float(self._trend),
            "seasonal": (
                None if self._seasonal is None else self._seasonal.copy()
            ),
            "season_index": self._season_index,
        }

    def _load_state(self, state: dict) -> None:
        self.alpha = float(state["alpha"])
        self.beta = float(state["beta"])
        self.gamma_s = float(state["gamma_s"])
        self._level = float(state["level"])
        self._trend = float(state["trend"])
        seasonal = state["seasonal"]
        self._seasonal = (
            None if seasonal is None else np.asarray(seasonal, dtype=float)
        )
        self._season_index = int(state["season_index"])


@register_forecaster("holt")
def _build_holt(config, cluster: int, group: int) -> HoltLinear:
    return HoltLinear()


@register_forecaster("holt_winters")
def _build_holt_winters(config, cluster: int, group: int) -> HoltWinters:
    return HoltWinters(period=config.hw_period)
