"""Seasonal ARIMA implemented from scratch (Sec. VI-A3).

The model is SARIMA(p, d, q)(P, D, Q)_s fitted by conditional sum of
squares (CSS): the seasonal and non-seasonal AR/MA lag polynomials are
multiplied out, residuals are computed by filtering the (differenced,
mean-adjusted) series through the ARMA recursion with zero initial
conditions (``scipy.signal.lfilter`` does this at C speed), and the
squared-residual sum is minimized with L-BFGS-B.  Forecasting iterates
the ARMA recursion forward with future innovations set to zero, then
integrates the differencing back with the exact polynomial recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.forecasting.base import Forecaster
from repro.forecasting.stattools import aicc, difference, undifference_forecasts

#: Penalty SSE returned for numerically unstable (non-invertible /
#: explosive) parameter points so the optimizer steers away from them.
_UNSTABLE_SSE = 1e12


@dataclass(frozen=True)
class ArimaOrder:
    """A SARIMA model order ``(p, d, q)(P, D, Q)_s``."""

    p: int = 1
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 0

    def __post_init__(self) -> None:
        for name in ("p", "d", "q", "P", "D", "Q", "s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if (self.P or self.D or self.Q) and self.s < 2:
            raise ConfigurationError(
                "seasonal terms require a seasonal period s >= 2"
            )

    @property
    def num_coefficients(self) -> int:
        """AR/MA coefficients, excluding mean and innovation variance."""
        return self.p + self.q + self.P + self.Q

    @property
    def num_parameters(self) -> int:
        """Parameters counted by the AICc (coefficients + mean + sigma²)."""
        return self.num_coefficients + 2

    @property
    def differencing_lag(self) -> int:
        return self.d + self.D * self.s

    def __str__(self) -> str:
        base = f"ARIMA({self.p},{self.d},{self.q})"
        if self.s >= 2:
            base += f"({self.P},{self.D},{self.Q})[{self.s}]"
        return base


def _expand_polynomials(
    order: ArimaOrder, params: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply seasonal and non-seasonal polynomials.

    Parameter layout: ``[phi(1..p), theta(1..q), Phi(1..P), Theta(1..Q)]``.

    Returns:
        ``(ar_full, ma_full)`` — coefficients of ``φ(B)Φ(B^s)`` and
        ``θ(B)Θ(B^s)`` in increasing powers of B, both with leading 1.
        Sign convention: ``φ(B) = 1 − φ₁B − …``, ``θ(B) = 1 + θ₁B + …``.
    """
    p, q, P, Q, s = order.p, order.q, order.P, order.Q, order.s
    phi = params[:p]
    theta = params[p : p + q]
    sphi = params[p + q : p + q + P]
    stheta = params[p + q + P : p + q + P + Q]

    ar = np.concatenate(([1.0], -phi))
    ma = np.concatenate(([1.0], theta))
    if P > 0:
        sar = np.zeros(P * s + 1)
        sar[0] = 1.0
        for i in range(1, P + 1):
            sar[i * s] = -sphi[i - 1]
        ar = np.convolve(ar, sar)
    if Q > 0:
        sma = np.zeros(Q * s + 1)
        sma[0] = 1.0
        for i in range(1, Q + 1):
            sma[i * s] = stheta[i - 1]
        ma = np.convolve(ma, sma)
    return ar, ma


def _is_stable(poly: np.ndarray, margin: float = 1e-3) -> bool:
    """Check that all roots of the lag polynomial lie outside the unit circle.

    ``poly`` holds coefficients in increasing powers of B.  Substituting
    ``z = 1/B`` and multiplying by ``z^m`` yields the polynomial whose
    ``np.roots`` coefficient vector (highest degree first) is exactly
    ``poly``; stability requires all its roots strictly inside the unit
    circle.
    """
    if poly.size <= 1:
        return True
    roots = np.roots(poly)
    if roots.size == 0:
        return True
    return bool(np.max(np.abs(roots)) < 1.0 - margin)


class ArimaModel(Forecaster):
    """CSS-fitted seasonal ARIMA forecaster.

    Args:
        order: The SARIMA order.
        enforce_stability: Reject parameter points whose AR or MA
            polynomial has roots on/inside the unit circle during
            optimization (recommended; keeps filtering and multi-step
            forecasts bounded).
    """

    def __init__(
        self, order: ArimaOrder = ArimaOrder(), *, enforce_stability: bool = True
    ) -> None:
        super().__init__()
        self.order = order
        self.enforce_stability = enforce_stability
        self._params: Optional[np.ndarray] = None
        self._mean = 0.0
        self._sse = float("nan")
        self._num_effective = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _css_residuals(
        self, params: np.ndarray, centered: np.ndarray
    ) -> Optional[np.ndarray]:
        """Residuals of the ARMA recursion with zero initial conditions.

        Returns None when the parameter point is unstable and stability is
        enforced.
        """
        ar, ma = _expand_polynomials(self.order, params)
        if self.enforce_stability and not (
            _is_stable(ar) and _is_stable(ma)
        ):
            return None
        from scipy import signal

        # φ(B) ỹ = θ(B) e  ⇔  e = (φ/θ)(B) ỹ; lfilter(b=ar, a=ma) applies
        # exactly this rational filter with zero initial conditions.
        residuals = signal.lfilter(ar, ma, centered)
        if not np.isfinite(residuals).all():
            return None
        return residuals

    def _objective(self, params_and_mean: np.ndarray, w: np.ndarray) -> float:
        mean = params_and_mean[-1]
        params = params_and_mean[:-1]
        residuals = self._css_residuals(params, w - mean)
        if residuals is None:
            return _UNSTABLE_SSE
        burn = self._burn_in()
        sse = float(np.dot(residuals[burn:], residuals[burn:]))
        return min(sse, _UNSTABLE_SSE)

    def _burn_in(self) -> int:
        """Observations dropped from the CSS sum (AR warm-up)."""
        return self.order.p + self.order.P * self.order.s

    def _fit(self, series: np.ndarray) -> None:
        order = self.order
        min_len = order.differencing_lag + self._burn_in() + max(
            order.num_coefficients + 2, 4
        )
        if series.size < min_len:
            raise DataError(
                f"series of length {series.size} too short to fit {order} "
                f"(needs >= {min_len})"
            )
        w = difference(series, order.d, order.D, order.s)
        n_coeff = order.num_coefficients
        initial = np.zeros(n_coeff + 1)
        initial[-1] = float(w.mean())
        if n_coeff == 0:
            self._params = np.empty(0)
            self._mean = float(w.mean())
            centered = w - self._mean
            burn = self._burn_in()
            self._sse = float(np.dot(centered[burn:], centered[burn:]))
            self._num_effective = w.size - burn
            return
        from scipy import optimize

        bounds = [(-0.98, 0.98)] * n_coeff + [(None, None)]
        result = optimize.minimize(
            self._objective,
            initial,
            args=(w,),
            method="L-BFGS-B",
            bounds=bounds,
        )
        best = result.x
        # A zero start can sit on a flat spot for pure-MA models; retry from
        # a small perturbation if the optimizer went nowhere.
        if not result.success or result.fun >= _UNSTABLE_SSE:
            alt = initial.copy()
            alt[:n_coeff] = 0.1
            retry = optimize.minimize(
                self._objective,
                alt,
                args=(w,),
                method="L-BFGS-B",
                bounds=bounds,
            )
            if retry.fun < result.fun:
                best = retry.x
        self._params = best[:-1]
        self._mean = float(best[-1])
        residuals = self._css_residuals(self._params, w - self._mean)
        burn = self._burn_in()
        if residuals is None:
            # Stability rejection at the optimum should not happen, but
            # never leave the model half-fitted.
            centered = w - self._mean
            self._sse = float(np.dot(centered[burn:], centered[burn:]))
        else:
            self._sse = float(np.dot(residuals[burn:], residuals[burn:]))
        self._num_effective = w.size - burn

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------

    def _forecast(self, horizon: int) -> np.ndarray:
        if self._params is None and self.order.num_coefficients > 0:
            raise NotFittedError("ArimaModel parameters missing")
        order = self.order
        series = self.history
        if series.size <= order.differencing_lag:
            raise DataError("not enough history to forecast")
        w = difference(series, order.d, order.D, order.s)
        centered = w - self._mean
        params = self._params if self._params is not None else np.empty(0)
        ar, ma = _expand_polynomials(order, params)
        from scipy import signal

        residuals = signal.lfilter(ar, ma, centered)
        if not np.isfinite(residuals).all():
            residuals = np.zeros_like(centered)

        ar_lags = ar.size - 1
        ma_lags = ma.size - 1
        y_ext = list(centered)
        e_ext = list(residuals)
        forecasts = np.empty(horizon)
        for h in range(horizon):
            value = 0.0
            for i in range(1, ar_lags + 1):
                if ar[i] != 0.0 and len(y_ext) - i >= 0:
                    value -= ar[i] * y_ext[-i]
            for j in range(1, ma_lags + 1):
                # Future innovations are zero; only innovations at or
                # before time t contribute.
                idx = len(e_ext) - j
                if ma[j] != 0.0 and 0 <= idx < residuals.size:
                    value += ma[j] * e_ext[idx]
            y_ext.append(value)
            e_ext.append(0.0)
            forecasts[h] = value + self._mean
        return undifference_forecasts(
            series, forecasts, order.d, order.D, order.s
        )

    def psi_weights(self, count: int) -> np.ndarray:
        """Impulse-response (ψ) weights of the fitted ARIMA process.

        The integrated process satisfies ``φ(B)Φ(B^s)(1−B)^d(1−B^s)^D x_t
        = θ(B)Θ(B^s) e_t``; its MA(∞) representation ``x_t = Σ ψ_i
        e_{t−i}`` is obtained by filtering a unit impulse through the
        rational transfer function.  Used for forecast-variance bands.
        """
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        if count < 1:
            raise DataError(f"count must be >= 1, got {count}")
        from scipy import signal

        from repro.forecasting.stattools import differencing_polynomial

        params = self._params if self._params is not None else np.empty(0)
        ar, ma = _expand_polynomials(self.order, params)
        diff = differencing_polynomial(
            self.order.d, self.order.D, self.order.s
        )
        denominator = np.convolve(ar, diff)
        impulse = np.zeros(count)
        impulse[0] = 1.0
        return signal.lfilter(ma, denominator, impulse)

    def forecast_interval(
        self, horizon: int, *, confidence: float = 0.95
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point forecasts with Gaussian prediction intervals.

        Args:
            horizon: Steps ahead.
            confidence: Two-sided coverage in (0, 1).

        Returns:
            ``(forecast, lower, upper)`` arrays of shape ``(horizon,)``.
            The h-step forecast variance is ``σ̂²·Σ_{i<h} ψ_i²``.
        """
        if not 0.0 < confidence < 1.0:
            raise DataError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        point = self.forecast(horizon)
        psi = self.psi_weights(horizon)
        variances = self.sigma2 * np.cumsum(psi**2)
        from scipy.stats import norm

        z_value = float(norm.ppf(0.5 + confidence / 2.0))
        half_width = z_value * np.sqrt(np.maximum(variances, 0.0))
        return point, point - half_width, point + half_width

    # ------------------------------------------------------------------
    # Checkpoint state contract
    # ------------------------------------------------------------------

    def _state(self) -> dict:
        return {
            "params": None if self._params is None else self._params.copy(),
            "model_mean": self._mean,
            "sse": self._sse,
            "num_effective": self._num_effective,
        }

    def _load_state(self, state: dict) -> None:
        params = state["params"]
        self._params = (
            None if params is None else np.asarray(params, dtype=float)
        )
        self._mean = float(state["model_mean"])
        self._sse = float(state["sse"])
        self._num_effective = int(state["num_effective"])

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    @property
    def sse(self) -> float:
        """Conditional sum of squared residuals at the optimum."""
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        return self._sse

    @property
    def sigma2(self) -> float:
        """Innovation-variance estimate ``SSE / n_effective``."""
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        if self._num_effective <= 0:
            return float("nan")
        return self._sse / self._num_effective

    @property
    def aicc(self) -> float:
        """Corrected Akaike information criterion of the fit."""
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        if self._num_effective <= 0:
            return float("inf")
        return aicc(self._sse, self._num_effective, self.order.num_parameters)

    @property
    def params(self) -> np.ndarray:
        """Fitted AR/MA coefficients (layout: φ, θ, Φ, Θ)."""
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        return np.asarray(self._params if self._params is not None else [])

    @property
    def mean(self) -> float:
        """Fitted mean of the differenced series."""
        if not self.is_fitted:
            raise NotFittedError("model not fitted")
        return self._mean
