"""repro — Online collection and forecasting of resource utilization.

A from-scratch reproduction of Tuor, Wang, Leung, Ko, *Online Collection
and Forecasting of Resource Utilization in Large-Scale Distributed
Systems* (ICDCS 2019).  The library provides:

* an adaptive Lyapunov drift-plus-penalty transmission policy that keeps
  each node's transmission frequency under a budget B (Sec. V-A);
* dynamic K-means clustering with Hungarian-matching re-indexing so
  cluster identities persist over time (Sec. V-B);
* per-cluster temporal forecasting (ARIMA / LSTM / sample-and-hold)
  executed through columnar :mod:`forecaster banks
  <repro.forecasting.bank>` — every cluster's model of a resource group
  batched into one fit/update/forecast call — with majority-vote
  membership forecasting and α-clipped per-node offsets (Sec. V-C);
* the evaluation substrate: synthetic stand-ins for the Alibaba,
  Bitbrains, Google and Intel-lab traces, the Gaussian monitor-selection
  baselines of Silvestri et al. (ICDCS 2015), metrics, and one
  experiment module per table/figure of the paper.

Quickstart::

    from repro import Engine, PipelineConfig
    from repro.datasets import load_alibaba_like

    dataset = load_alibaba_like(num_nodes=50, num_steps=400)
    engine = Engine(PipelineConfig.small())
    result = engine.run(dataset.resource("cpu"))
    print(result.rmse_by_horizon)

Every stage is pluggable by name through :mod:`repro.registry`
(forecasters, transmission slot kernels, collection backends,
similarity measures); ``Engine.from_config`` additionally accepts a
config dict or a JSON file path, so deployments are constructible from
plain data.
"""

from repro.api import Engine, RunResult
from repro.checkpoint import CHECKPOINT_FORMAT_VERSION, Checkpoint
from repro.core import (
    ClusteringConfig,
    ForecastingConfig,
    OnlinePipeline,
    PipelineConfig,
    PipelineResult,
    TransmissionConfig,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    DataError,
    NotFittedError,
    ReproError,
    SimulationError,
)
from repro.forecasting.bank import ForecasterBank, ObjectBank
from repro.registry import (
    COLLECTION_BACKENDS,
    FORECASTERS,
    FORECASTER_BANKS,
    SCENARIOS,
    SIMILARITY_MEASURES,
    Registry,
)
from repro.session import StreamSession
from repro.simulation.fleet import FleetState

__version__ = "5.5.0"

__all__ = [
    "Engine",
    "FleetState",
    "RunResult",
    "StreamSession",
    "Checkpoint",
    "CHECKPOINT_FORMAT_VERSION",
    "ClusteringConfig",
    "ForecastingConfig",
    "OnlinePipeline",
    "PipelineConfig",
    "PipelineResult",
    "TransmissionConfig",
    "ForecasterBank",
    "ObjectBank",
    "Registry",
    "COLLECTION_BACKENDS",
    "FORECASTERS",
    "FORECASTER_BANKS",
    "SCENARIOS",
    "SIMILARITY_MEASURES",
    "CheckpointError",
    "ConfigurationError",
    "ConvergenceError",
    "DataError",
    "NotFittedError",
    "ReproError",
    "SimulationError",
    "__version__",
]
