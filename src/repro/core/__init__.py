"""Core: configuration, value types, metrics, and the online pipeline."""

from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.metrics import (
    instantaneous_rmse,
    instantaneous_rmse_batch,
    intermediate_rmse,
    standard_deviation_bound,
    time_averaged_rmse,
)
from repro.core.pipeline import (
    ForecastFactors,
    OnlinePipeline,
    StepOutput,
    default_forecaster_factory,
)
from repro.core.types import (
    ClusterAssignment,
    validate_trace,
)

__all__ = [
    "ClusteringConfig",
    "ForecastingConfig",
    "PipelineConfig",
    "TransmissionConfig",
    "instantaneous_rmse",
    "instantaneous_rmse_batch",
    "intermediate_rmse",
    "standard_deviation_bound",
    "time_averaged_rmse",
    "ForecastFactors",
    "OnlinePipeline",
    "StepOutput",
    "default_forecaster_factory",
    "ClusterAssignment",
    "validate_trace",
]
