"""Sample-and-hold forecaster (Sec. VI-D1).

The simplest possible predictor: the forecast for every future step is
the most recent observation.  The paper uses it both as a baseline and as
the default forecaster for parameter studies (Tables III, Figs. 10–11),
noting it is cheap enough to run per node (K = N).

The hold/mean computations are the batched kernels :func:`hold_forecast`
and :func:`running_mean` that the banks in :mod:`repro.forecasting.bank`
run; :class:`SampleHoldForecaster` is the per-series form Fig. 8 walks.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.forecasting.base import Forecaster


def hold_forecast(last: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the latest value of ``S`` series over the horizon.

    Args:
        last: Latest observation per series, shape ``(S,)``.
        horizon: Steps ahead H >= 1.

    Returns:
        Forecasts, shape ``(H, S)``.
    """
    values = np.asarray(last, dtype=float)
    if values.ndim != 1:
        raise DataError(f"last must be (S,), got shape {values.shape}")
    return np.tile(values, (horizon, 1))


def running_mean(history: np.ndarray) -> np.ndarray:
    """Mean over time of ``S`` series, shape ``(T, S)`` → ``(S,)``.

    The contiguous per-series layout keeps each column's reduction
    bit-identical to a 1-D ``np.mean`` of that column.
    """
    x = np.asarray(history, dtype=float)
    if x.ndim != 2:
        raise DataError(f"history batch must be (T, S), got shape {x.shape}")
    if x.shape[0] == 0:
        raise DataError("history is empty")
    return np.ascontiguousarray(x.T).mean(axis=1)


class SampleHoldForecaster(Forecaster):
    """Predicts every horizon with the latest observed value."""

    def _fit(self, series: np.ndarray) -> None:
        # No parameters: the history kept by the base class is the model.
        pass

    def _forecast(self, horizon: int) -> np.ndarray:
        last = self.history[-1]
        return hold_forecast(np.asarray([float(last)]), horizon)[:, 0]
