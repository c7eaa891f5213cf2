"""Error decomposition: where does the forecast RMSE come from?

The pipeline's end-to-end error at horizon ``h`` mixes three sources the
paper discusses separately but never decomposes:

* **staleness** — ``z_t ≠ x_t`` because nodes transmit at frequency
  ``B < 1`` (the h = 0 RMSE, Sec. VI-B);
* **spatial (clustering)** — representing each node by its cluster
  centroid (+ offset) instead of its own value (the "intermediate RMSE"
  of Sec. VI-C);
* **temporal** — forecasting the centroid ``h`` steps ahead instead of
  knowing it (Sec. VI-D).

:func:`decompose_error` isolates the three by re-running the estimation
with the corresponding component made exact (perfect transmission /
per-node clusters / oracle centroids), giving operators a principled
answer to "should I buy bandwidth, clusters, or a better model?".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_mapping
from repro.api import Engine
from repro.core.config import PipelineConfig
from repro.core.types import validate_trace
from repro.exceptions import DataError


@dataclass(frozen=True)
class ErrorDecomposition:
    """RMSE at one horizon under progressively idealized components.

    Attributes:
        horizon: The forecast step analysed.
        total: End-to-end pipeline RMSE (adaptive collection, K clusters,
            real forecaster).
        without_staleness: Same pipeline with B = 1 (perfect collection);
            the difference ``total − without_staleness`` is the staleness
            contribution.
        staleness_only: RMSE at h = 0 (no clustering, no forecasting) —
            the floor imposed by the transmission budget alone.
        clustering_only: Intermediate RMSE of the run (centroid vs stored
            value; no temporal error).
    """

    horizon: int
    total: float
    without_staleness: float
    staleness_only: float
    clustering_only: float

    @property
    def staleness_share(self) -> float:
        """Fraction of total squared error attributable to staleness."""
        if self.total <= 0:
            return 0.0
        reduced = max(self.total**2 - self.without_staleness**2, 0.0)
        return reduced / self.total**2

    def format(self) -> str:
        return format_mapping(
            f"error decomposition at h={self.horizon}",
            {
                "total RMSE": self.total,
                "without staleness (B=1)": self.without_staleness,
                "staleness floor (h=0)": self.staleness_only,
                "clustering (intermediate)": self.clustering_only,
                "staleness share of total": self.staleness_share,
            },
        )


def decompose_error(
    trace: np.ndarray,
    config: PipelineConfig,
    horizon: int,
) -> ErrorDecomposition:
    """Run the pipeline twice (adaptive vs perfect collection) and
    extract the three error components at one horizon.

    Args:
        trace: True measurements ``(T, N[, d])``.
        config: Pipeline configuration (its ``max_horizon`` must cover
            ``horizon``).
        horizon: Forecast step to analyse (``1 <= horizon <=
            config.forecasting.max_horizon``).
    """
    data = validate_trace(trace)
    if not 1 <= horizon <= config.forecasting.max_horizon:
        raise DataError(
            f"horizon {horizon} outside [1, "
            f"{config.forecasting.max_horizon}]"
        )
    adaptive = Engine(config, policy="adaptive").run(
        data, horizons=[0, horizon]
    )
    perfect = Engine(config, policy="perfect").run(
        data, horizons=[horizon]
    )
    return ErrorDecomposition(
        horizon=horizon,
        total=adaptive.rmse_by_horizon[horizon],
        without_staleness=perfect.rmse_by_horizon[horizon],
        staleness_only=adaptive.rmse_by_horizon[0],
        clustering_only=adaptive.intermediate_rmse,
    )
