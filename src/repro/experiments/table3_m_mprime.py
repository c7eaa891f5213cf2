"""Table III — RMSE across the (M, M') parameter grid.

Sweeps the similarity look-back ``M`` and the membership/offset look-back
``M'`` on the Google-like CPU data with the sample-and-hold forecaster,
at horizons h ∈ {1, 5, 10}.  Paper findings: M = 1 is a good default
everywhere, and the best M' increases with the horizon (forecasting
farther ahead should rely on longer membership history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.core.config import TransmissionConfig
from repro.datasets import load_google_like
from repro.experiments.common import (
    run_clustering,
    sample_hold_forecast_rmse,
)
from repro.simulation.collection import collect

DEFAULT_M = (1, 5, 12)
DEFAULT_M_PRIME = (1, 5, 12)
DEFAULT_HORIZONS = (1, 5, 10)


@dataclass
class Table3Result:
    """RMSE per (h, M, M')."""

    horizons: Sequence[int]
    m_values: Sequence[int]
    m_prime_values: Sequence[int]
    rmse: Dict[Tuple[int, int, int], float]

    def format(self) -> str:
        blocks = []
        for h in self.horizons:
            rows = []
            for m in self.m_values:
                row: list = [f"M={m}"]
                for mp in self.m_prime_values:
                    row.append(self.rmse[(h, m, mp)])
                rows.append(row)
            headers = [f"h={h}"] + [f"M'={mp}" for mp in self.m_prime_values]
            blocks.append(format_table(headers, rows))
        return "\n\n".join(blocks)


def run_table3(
    num_nodes: int = 60,
    num_steps: int = 700,
    *,
    m_values: Sequence[int] = DEFAULT_M,
    m_prime_values: Sequence[int] = DEFAULT_M_PRIME,
    horizons: Sequence[int] = DEFAULT_HORIZONS,
    num_clusters: int = 3,
    budget: float = 0.3,
    start: int = 100,
    seed: int = 0,
) -> Table3Result:
    """Regenerate the Table III grid."""
    dataset = load_google_like(num_nodes=num_nodes, num_steps=num_steps)
    trace = dataset.resource("cpu")
    stored = collect(
        trace, TransmissionConfig(budget=budget)
    ).stored[:, :, 0]
    rmse: Dict[Tuple[int, int, int], float] = {}
    for m in m_values:
        assignments = run_clustering(
            stored, "proposed", num_clusters, seed=seed, history_depth=m
        )
        for mp in m_prime_values:
            per_h = sample_hold_forecast_rmse(
                trace,
                stored,
                assignments,
                horizons,
                membership_lookback=mp,
                start=start,
            )
            for h, value in per_h.items():
                rmse[(h, m, mp)] = value
    return Table3Result(
        horizons=horizons,
        m_values=m_values,
        m_prime_values=m_prime_values,
        rmse=rmse,
    )
