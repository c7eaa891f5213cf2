"""Table II — aggregated forecasting-model training time per centroid.

Measures the total wall-clock spent (re)training the ARIMA grid search
and the LSTM on one cluster's centroid series over the full monitoring
duration (initial training + periodic retrainings).  The paper's numbers
(i7-6700): ARIMA ≈ 0.5–1 min, LSTM ≈ 9–14 min for ~8–12k steps — i.e.
LSTM an order of magnitude slower, both negligible against the trace
duration.  Absolute values differ on other hardware; the ordering and
smallness are the reproduced claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.analysis.reporting import format_table
from repro.clustering.dynamic import DynamicClusterTracker
from repro.core.config import TransmissionConfig
from repro.experiments.common import load_cluster_datasets
from repro.forecasting.arima import AutoArima
from repro.forecasting.lstm import LstmForecaster
from repro.simulation.collection import collect


@dataclass
class Table2Result:
    """Aggregate training seconds per (dataset, model).

    Attributes:
        seconds: ``{(dataset, model): total seconds}``.
        num_steps: Steps per dataset trace.
        retrainings: Number of (re)trainings performed.
    """

    seconds: Dict[str, Dict[str, float]]
    num_steps: int
    retrainings: int

    def format(self) -> str:
        rows = []
        for dataset, per_model in sorted(self.seconds.items()):
            rows.append(
                [
                    f"{dataset} ({self.num_steps} steps, "
                    f"{self.retrainings} trainings)",
                    per_model["arima"],
                    per_model["lstm"],
                ]
            )
        return format_table(["dataset", "ARIMA (s)", "LSTM (s)"], rows)

    def lstm_slower_everywhere(self) -> bool:
        return all(
            per_model["lstm"] > per_model["arima"]
            for per_model in self.seconds.values()
        )


def _centroid_series(
    trace: np.ndarray, num_clusters: int, budget: float, seed: int
) -> np.ndarray:
    stored = collect(
        trace, TransmissionConfig(budget=budget)
    ).stored[:, :, 0]
    tracker = DynamicClusterTracker(num_clusters, seed=seed)
    for t in range(stored.shape[0]):
        tracker.update(stored[t])
    return tracker.centroid_series(0)[:, 0]


def run_table2(
    num_nodes: int = 40,
    num_steps: int = 900,
    *,
    initial_collection: int = 300,
    retrain_interval: int = 200,
    num_clusters: int = 3,
    budget: float = 0.3,
    arima_bounds: Dict[str, int] = None,
    lstm_epochs: int = 30,
    seed: int = 0,
) -> Table2Result:
    """Regenerate the Table II timing measurement."""
    if arima_bounds is None:
        arima_bounds = dict(max_p=2, max_d=1, max_q=2)
    datasets = load_cluster_datasets(num_nodes, num_steps)
    train_points = list(
        range(initial_collection, num_steps, retrain_interval)
    )
    series_by_dataset = {
        name: _centroid_series(
            dataset.resource("cpu"), num_clusters, budget, seed
        )
        for name, dataset in datasets.items()
    }
    factories: Dict[str, Callable[[], object]] = {
        "arima": lambda: AutoArima(**arima_bounds),
        "lstm": lambda: LstmForecaster(
            hidden_dim=32, lookback=16, epochs=lstm_epochs, seed=seed
        ),
    }
    seconds: Dict[str, Dict[str, float]] = {
        name: {} for name in series_by_dataset
    }
    first_series = next(iter(series_by_dataset.values()))
    for model_name, factory in factories.items():
        if train_points:
            # One untimed fit first: a process's first fit also pays
            # one-off costs that are not training, such as ARIMA's
            # scipy import.
            factory().fit(first_series[:initial_collection])
        for name, series in series_by_dataset.items():
            total = 0.0
            for point in train_points:
                model = factory()
                start = time.perf_counter()
                model.fit(series[:point])
                total += time.perf_counter() - start
            seconds[name][model_name] = total
    return Table2Result(
        seconds=seconds,
        num_steps=num_steps,
        retrainings=len(train_points),
    )
