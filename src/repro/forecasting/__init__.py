"""Temporal forecasting stage (Sec. V-C): models, membership, offsets."""

from repro.forecasting.arima import (
    ArimaModel,
    ArimaOrder,
    AutoArima,
    candidate_orders,
    grid_search,
)
from repro.forecasting.base import Forecaster
from repro.forecasting.bank import (
    BankForecastError,
    ExponentialBank,
    ForecasterBank,
    ForecasterFactory,
    MeanBank,
    ObjectBank,
    SampleHoldBank,
    YuleWalkerBank,
    default_forecaster_factory,
    resolve_bank,
)
from repro.forecasting.exponential import (
    HoltLinear,
    HoltWinters,
    ewma_run,
    fit_ses_alpha,
)
from repro.forecasting.yule_walker import (
    ar_forecast_batch,
    fit_yule_walker_batch,
)
from repro.forecasting.lstm import LstmForecaster, StackedLSTMNetwork
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import estimate_offsets
from repro.forecasting.sample_hold import (
    SampleHoldForecaster,
    hold_forecast,
    running_mean,
)
from repro.forecasting.stattools import (
    aicc,
    difference,
    differencing_polynomial,
    undifference_forecasts,
)

__all__ = [
    "ArimaModel",
    "ArimaOrder",
    "AutoArima",
    "candidate_orders",
    "grid_search",
    "Forecaster",
    "BankForecastError",
    "ExponentialBank",
    "ForecasterBank",
    "ForecasterFactory",
    "MeanBank",
    "ObjectBank",
    "SampleHoldBank",
    "YuleWalkerBank",
    "default_forecaster_factory",
    "resolve_bank",
    "HoltLinear",
    "HoltWinters",
    "ewma_run",
    "fit_ses_alpha",
    "hold_forecast",
    "running_mean",
    "ar_forecast_batch",
    "fit_yule_walker_batch",
    "LstmForecaster",
    "StackedLSTMNetwork",
    "forecast_membership",
    "estimate_offsets",
    "SampleHoldForecaster",
    "aicc",
    "difference",
    "differencing_polynomial",
    "undifference_forecasts",
]
