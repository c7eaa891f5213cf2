"""Fig. 7 — intermediate RMSE vs number of clusters K (B = 0.3).

The paper's strong result: a handful of clusters already achieves close
to the minimum intermediate RMSE, and even K = N cannot reach zero
because the stored measurements are stale (B < 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.core.config import TransmissionConfig
from repro.experiments.common import (
    RESOURCES,
    intermediate_rmse_of,
    load_cluster_datasets,
    run_clustering,
)
from repro.simulation.collection import collect

DEFAULT_NUM_CLUSTERS = (1, 2, 3, 5, 10, 20)
METHODS = ("proposed", "minimum_distance")


@dataclass
class Fig7Result:
    """Intermediate RMSE per (dataset, resource, method) across K."""

    cluster_counts: Sequence[int]
    rmse: Dict[Tuple[str, str, str], List[float]]

    def format(self) -> str:
        rows = []
        for key in sorted(self.rmse):
            dataset, resource, method = key
            for count, value in zip(self.cluster_counts, self.rmse[key]):
                rows.append([dataset, resource, method, count, value])
        return format_table(
            ["dataset", "resource", "method", "K", "intermediate RMSE"], rows
        )


def run_fig7(
    num_nodes: int = 60,
    num_steps: int = 600,
    *,
    cluster_counts: Sequence[int] = DEFAULT_NUM_CLUSTERS,
    budget: float = 0.3,
    resources: Sequence[str] = RESOURCES,
    seed: int = 0,
) -> Fig7Result:
    """Regenerate the Fig. 7 sweep."""
    datasets = load_cluster_datasets(num_nodes, num_steps)
    rmse: Dict[Tuple[str, str, str], List[float]] = {}
    for name, dataset in datasets.items():
        for resource in resources:
            trace = dataset.resource(resource)
            stored = collect(
                trace, TransmissionConfig(budget=budget)
            ).stored[:, :, 0]
            per_method: Dict[str, List[float]] = {m: [] for m in METHODS}
            for count in cluster_counts:
                if count > num_nodes:
                    continue
                for method in METHODS:
                    assignments = run_clustering(
                        stored, method, count, seed=seed
                    )
                    per_method[method].append(
                        intermediate_rmse_of(stored, assignments)
                    )
            for method in METHODS:
                rmse[(name, resource, method)] = per_method[method]
    return Fig7Result(cluster_counts=cluster_counts, rmse=rmse)
