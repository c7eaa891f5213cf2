"""Ablation studies of the paper's design choices.

Not figures from the paper, but the experiments DESIGN.md commits to for
validating the pieces the paper asserts without isolating:

* **Re-indexing** — is the Hungarian cluster matching (Sec. V-B)
  actually needed, or would raw per-step K-means labels do?  Without
  re-indexing the "centroid time series" jumps between clusters whenever
  K-means permutes its output, so centroid-based forecasting should
  degrade.
* **Per-node offsets** — how much does the Eq. 12 offset ``ŝ`` buy over
  pure centroid estimation, and does the α-clipping matter versus raw
  offsets?
* **Warm-start K-means** — seeding each step's K-means with the previous
  centroids: same quality for less work?
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.exceptions import ConfigurationError
from repro.clustering.dynamic import DynamicClusterTracker
from repro.clustering.kmeans import kmeans
from repro.core.config import TransmissionConfig
from repro.core.types import ClusterAssignment
from repro.datasets import load_alibaba_like, load_google_like
from repro.experiments.common import (
    intermediate_rmse_of,
    run_clustering,
    sample_hold_forecast_rmse,
)
from repro.simulation.collection import collect


def _unmatched_assignments(
    stored: np.ndarray, num_clusters: int, seed: int
) -> List[ClusterAssignment]:
    """Per-step K-means with *no* re-indexing (raw label order)."""
    rng = np.random.default_rng(seed)
    assignments = []
    for t in range(stored.shape[0]):
        result = kmeans(stored[t][:, np.newaxis], num_clusters, rng=rng)
        assignments.append(
            ClusterAssignment(
                time=t, labels=result.labels, centroids=result.centroids
            )
        )
    return assignments


@dataclass
class ReindexingAblationResult:
    """Forecast RMSE with and without Hungarian re-indexing."""

    horizons: Sequence[int]
    rmse: Dict[str, Dict[int, float]]

    def format(self) -> str:
        rows = []
        for variant, per_h in sorted(self.rmse.items()):
            for h in self.horizons:
                rows.append([variant, h, per_h[h]])
        return format_table(["variant", "h", "RMSE"], rows)

    def reindexing_helps(self, horizon: int) -> bool:
        return (
            self.rmse["matched"][horizon]
            <= self.rmse["unmatched"][horizon] + 1e-9
        )


def run_ablation_reindexing(
    num_nodes: int = 60,
    num_steps: int = 500,
    *,
    num_clusters: int = 3,
    budget: float = 0.3,
    horizons: Sequence[int] = (1, 5, 10),
    start: int = 80,
    seed: int = 0,
) -> ReindexingAblationResult:
    """Hungarian re-indexing vs raw K-means label order."""
    dataset = load_alibaba_like(num_nodes=num_nodes, num_steps=num_steps)
    trace = dataset.resource("cpu")
    stored = collect(
        trace, TransmissionConfig(budget=budget)
    ).stored[:, :, 0]
    matched = run_clustering(stored, "proposed", num_clusters, seed=seed)
    unmatched = _unmatched_assignments(stored, num_clusters, seed)
    rmse = {
        "matched": sample_hold_forecast_rmse(
            trace, stored, matched, horizons, start=start
        ),
        "unmatched": sample_hold_forecast_rmse(
            trace, stored, unmatched, horizons, start=start
        ),
    }
    return ReindexingAblationResult(horizons=horizons, rmse=rmse)


@dataclass
class OffsetAblationResult:
    """Forecast RMSE with clipped / raw / no per-node offsets."""

    horizons: Sequence[int]
    rmse: Dict[str, Dict[int, float]]

    def format(self) -> str:
        rows = []
        for variant, per_h in sorted(self.rmse.items()):
            for h in self.horizons:
                rows.append([variant, h, per_h[h]])
        return format_table(["offset mode", "h", "RMSE"], rows)

    def offsets_help(self, horizon: int) -> bool:
        return (
            self.rmse["clipped"][horizon]
            <= self.rmse["none"][horizon] + 1e-9
        )


def run_ablation_offsets(
    num_nodes: int = 60,
    num_steps: int = 500,
    *,
    num_clusters: int = 3,
    budget: float = 0.3,
    horizons: Sequence[int] = (1, 5, 10),
    start: int = 80,
    seed: int = 0,
) -> OffsetAblationResult:
    """Eq. 12 offsets (clipped) vs raw offsets vs none."""
    dataset = load_google_like(num_nodes=num_nodes, num_steps=num_steps)
    trace = dataset.resource("cpu")
    stored = collect(
        trace, TransmissionConfig(budget=budget)
    ).stored[:, :, 0]
    assignments = run_clustering(stored, "proposed", num_clusters, seed=seed)
    rmse = {
        mode: sample_hold_forecast_rmse(
            trace, stored, assignments, horizons, start=start,
            offset_mode=mode,
        )
        for mode in ("clipped", "raw", "none")
    }
    return OffsetAblationResult(horizons=horizons, rmse=rmse)


@dataclass
class DeadbandAblationResult:
    """Why explicit frequency control matters (Sec. II's argument).

    A deadband (send-on-delta) policy is calibrated to hit the target
    frequency on ONE dataset; the same δ is then applied to the others.
    Because its frequency is only implicitly tied to data volatility, it
    misses the budget badly elsewhere, while the Lyapunov policy hits the
    target everywhere.

    Attributes:
        target: The intended transmission frequency.
        calibration_dataset: Where δ was tuned.
        delta: The calibrated deadband width.
        deadband_frequency: Achieved frequency per dataset with that δ.
        adaptive_frequency: Achieved frequency per dataset with the
            Lyapunov policy at budget = target.
    """

    target: float
    calibration_dataset: str
    delta: float
    deadband_frequency: Dict[str, float]
    adaptive_frequency: Dict[str, float]

    def format(self) -> str:
        rows = []
        for dataset in sorted(self.deadband_frequency):
            rows.append(
                [
                    dataset,
                    self.target,
                    self.deadband_frequency[dataset],
                    self.adaptive_frequency[dataset],
                ]
            )
        header = (
            f"deadband δ={self.delta:.4f} calibrated on "
            f"{self.calibration_dataset}\n"
        )
        return header + format_table(
            ["dataset", "target B", "deadband freq", "adaptive freq"], rows
        )

    def max_deadband_miss(self) -> float:
        """Largest relative budget miss of the deadband policy."""
        return max(
            abs(freq - self.target) / self.target
            for freq in self.deadband_frequency.values()
        )

    def max_adaptive_miss(self) -> float:
        return max(
            abs(freq - self.target) / self.target
            for freq in self.adaptive_frequency.values()
        )


def run_ablation_deadband(
    num_nodes: int = 60,
    num_steps: int = 800,
    *,
    target: float = 0.3,
    calibration_dataset: str = "alibaba",
    seed: int = 0,
) -> DeadbandAblationResult:
    """Calibrate a deadband on one dataset, apply it everywhere."""
    from repro.experiments.common import load_cluster_datasets

    datasets = load_cluster_datasets(num_nodes, num_steps)
    if calibration_dataset not in datasets:
        raise ConfigurationError(
            f"unknown calibration dataset {calibration_dataset!r}"
        )
    calibration_trace = datasets[calibration_dataset].resource("cpu")

    # Bisect δ to reach the target frequency on the calibration trace.
    low, high = 1e-4, 1.0
    delta = 0.05
    for _ in range(40):
        delta = 0.5 * (low + high)
        freq = collect(
            calibration_trace,
            TransmissionConfig(deadband_delta=delta),
            backend="deadband",
        ).empirical_frequency
        if freq > target:
            low = delta
        else:
            high = delta

    deadband_freq: Dict[str, float] = {}
    adaptive_freq: Dict[str, float] = {}
    for name, dataset in datasets.items():
        trace = dataset.resource("cpu")
        deadband_freq[name] = collect(
            trace, TransmissionConfig(deadband_delta=delta), backend="deadband"
        ).empirical_frequency
        adaptive_freq[name] = collect(
            trace, TransmissionConfig(budget=target)
        ).empirical_frequency
    return DeadbandAblationResult(
        target=target,
        calibration_dataset=calibration_dataset,
        delta=delta,
        deadband_frequency=deadband_freq,
        adaptive_frequency=adaptive_freq,
    )


@dataclass
class WarmStartAblationResult:
    """Quality and wall-clock with and without warm-start K-means."""

    intermediate_rmse: Dict[str, float]
    seconds: Dict[str, float]

    def format(self) -> str:
        rows = [
            [variant, self.intermediate_rmse[variant], self.seconds[variant]]
            for variant in sorted(self.intermediate_rmse)
        ]
        return format_table(
            ["variant", "intermediate RMSE", "seconds"], rows
        )

    def quality_gap(self) -> float:
        return abs(
            self.intermediate_rmse["warm"] - self.intermediate_rmse["cold"]
        )


def run_ablation_warm_start(
    num_nodes: int = 80,
    num_steps: int = 500,
    *,
    num_clusters: int = 3,
    budget: float = 0.3,
    seed: int = 0,
) -> WarmStartAblationResult:
    """Warm-started per-step K-means vs fresh k-means++ restarts."""
    dataset = load_alibaba_like(num_nodes=num_nodes, num_steps=num_steps)
    trace = dataset.resource("cpu")
    stored = collect(
        trace, TransmissionConfig(budget=budget)
    ).stored[:, :, 0]
    intermediate: Dict[str, float] = {}
    seconds: Dict[str, float] = {}
    for variant, warm in (("cold", False), ("warm", True)):
        tracker = DynamicClusterTracker(
            num_clusters, seed=seed, warm_start=warm
        )
        started = time.perf_counter()
        assignments = [
            tracker.update(stored[t]) for t in range(stored.shape[0])
        ]
        seconds[variant] = time.perf_counter() - started
        intermediate[variant] = intermediate_rmse_of(stored, assignments)
    return WarmStartAblationResult(
        intermediate_rmse=intermediate, seconds=seconds
    )
