"""Core: configuration, value types, metrics, and the online pipeline."""

from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.metrics import (
    horizon_averaged_rmse,
    instantaneous_rmse,
    instantaneous_rmse_batch,
    intermediate_rmse,
    standard_deviation_bound,
    time_averaged_rmse,
    transmission_frequency,
)
from repro.core.pipeline import (
    ForecastFactors,
    OnlinePipeline,
    PipelineResult,
    StepOutput,
    default_forecaster_factory,
)
from repro.core.types import (
    ClusterAssignment,
    Forecast,
    TransmissionRecord,
    validate_trace,
)

__all__ = [
    "ClusteringConfig",
    "ForecastingConfig",
    "PipelineConfig",
    "TransmissionConfig",
    "horizon_averaged_rmse",
    "instantaneous_rmse",
    "instantaneous_rmse_batch",
    "intermediate_rmse",
    "standard_deviation_bound",
    "time_averaged_rmse",
    "transmission_frequency",
    "ForecastFactors",
    "OnlinePipeline",
    "PipelineResult",
    "StepOutput",
    "default_forecaster_factory",
    "ClusterAssignment",
    "Forecast",
    "TransmissionRecord",
    "validate_trace",
]
