"""Per-series forecasters: the oracles the vectorized banks are pinned to.

The engine runs ``sample_hold``, ``mean``, ``ses`` and ``ar`` through
their :class:`~repro.forecasting.bank.ForecasterBank`, one structure of
arrays per resource group.  The classes here forecast ONE scalar series
with the same batched kernels a bank runs over all ``K·d`` series
(:func:`~repro.forecasting.sample_hold.running_mean`,
:func:`~repro.forecasting.exponential.fit_ses_alpha`,
:func:`~repro.forecasting.exponential.ewma_run`,
:func:`~repro.forecasting.yule_walker.fit_yule_walker_batch`,
:func:`~repro.forecasting.yule_walker.ar_forecast_batch`), so a loop of
them must give the bank's numbers bit for bit.  ``tests/test_banks.py``
pins each bank against such a loop, and an engine given
``forecaster_factory=oracle_factory(config)`` runs the same models
through :class:`~repro.forecasting.bank.ObjectBank`, the path every
model without a bank takes.

The package keeps :class:`~repro.forecasting.sample_hold.
SampleHoldForecaster`, which Fig. 8 walks forward beside the ARIMA and
LSTM objects; it is the ``sample_hold`` oracle too.
"""

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.base import Forecaster
from repro.forecasting.exponential import ewma_run, fit_ses_alpha
from repro.forecasting.sample_hold import (
    SampleHoldForecaster,
    hold_forecast,
    running_mean,
)
from repro.forecasting.yule_walker import (
    ar_forecast_batch,
    fit_yule_walker_batch,
)


class MeanForecaster(Forecaster):
    """Predicts every horizon with the long-term mean of the history.

    This is the offline "long-term statistics" mechanism whose error the
    paper upper-bounds by the standard deviation (Sec. VI-D1).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mean = 0.0

    def _fit(self, series: np.ndarray) -> None:
        self._mean = float(running_mean(series[:, np.newaxis])[0])

    def _update(self, value: float) -> None:
        # Keep the running mean consistent with the full history.
        self._mean = float(running_mean(self.history[:, np.newaxis])[0])

    def _forecast(self, horizon: int) -> np.ndarray:
        return hold_forecast(np.asarray([self._mean]), horizon)[:, 0]

    def _state(self) -> dict:
        return {"mean": self._mean}

    def _load_state(self, state: dict) -> None:
        self._mean = float(state["mean"])


class SimpleExponentialSmoothing(Forecaster):
    """Level-only exponential smoothing: ``l_t = α·y_t + (1−α)·l_{t−1}``.

    Args:
        alpha: Fixed smoothing weight in (0, 1]; fitted from data when
            None.
    """

    def __init__(self, alpha: Optional[float] = None) -> None:
        super().__init__()
        if alpha is not None and not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self._fixed_alpha = alpha
        self.alpha = alpha if alpha is not None else 0.5
        self._level = 0.0

    def _fit(self, series: np.ndarray) -> None:
        if self._fixed_alpha is None and series.size >= 3:
            self.alpha = fit_ses_alpha(series)
        self._level = ewma_run(series[:, np.newaxis], self.alpha)[0]

    def _update(self, value: float) -> None:
        if self.is_fitted:
            self._level = self.alpha * value + (1.0 - self.alpha) * self._level

    def _forecast(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self._level)

    def _state(self) -> dict:
        return {"alpha": float(self.alpha), "level": float(self._level)}

    def _load_state(self, state: dict) -> None:
        self.alpha = float(state["alpha"])
        self._level = float(state["level"])


def fit_yule_walker(series: np.ndarray, order: int) -> np.ndarray:
    """Solve the Yule–Walker equations for AR coefficients.

    Args:
        series: 1-D observations.
        order: AR order p >= 1.

    Returns:
        Coefficients ``φ_1..φ_p`` of ``y_t = μ + Σ φ_i (y_{t−i} − μ)``.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {x.shape}")
    return fit_yule_walker_batch(x[:, np.newaxis], order)[:, 0]


class YuleWalkerAR(Forecaster):
    """AR(p) forecaster fitted by Yule–Walker.

    Args:
        order: AR order p.
    """

    def __init__(self, order: int = 2) -> None:
        super().__init__()
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.order = order
        self._coefficients = np.zeros(order)
        self._mean = 0.0

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients.copy()

    @property
    def mean(self) -> float:
        return self._mean

    def _fit(self, series: np.ndarray) -> None:
        self._mean = float(series.mean())
        self._coefficients = fit_yule_walker(series, self.order)

    def _forecast(self, horizon: int) -> np.ndarray:
        history = self.history
        if history.size < self.order:
            raise DataError(
                f"need at least {self.order} observations to forecast"
            )
        return ar_forecast_batch(
            self._coefficients[:, np.newaxis],
            np.asarray([self._mean]),
            history[-self.order :][:, np.newaxis],
            horizon,
        )[:, 0]

    def _state(self) -> dict:
        return {"coefficients": self._coefficients.copy(), "mean": self._mean}

    def _load_state(self, state: dict) -> None:
        self._coefficients = np.asarray(state["coefficients"], dtype=float)
        self._mean = float(state["mean"])


def oracle_factory(config):
    """The per-series oracle of ``config.model`` as a forecaster factory.

    ``Engine(pipeline_config, forecaster_factory=oracle_factory(
    pipeline_config.forecasting))`` runs a banked model through
    :class:`~repro.forecasting.bank.ObjectBank`, one oracle per
    ``(cluster, dim)`` series.
    """
    builders = {
        "sample_hold": SampleHoldForecaster,
        "mean": MeanForecaster,
        "ses": SimpleExponentialSmoothing,
        "ar": lambda: YuleWalkerAR(order=config.ar_order),
    }
    build = builders[config.model]

    def factory(cluster, group):
        return build()

    return factory
