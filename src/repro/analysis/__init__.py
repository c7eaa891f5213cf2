"""Analysis helpers: spatial correlation (Fig. 1) and result reporting."""

from repro.analysis.correlation import (
    cdf_at,
    fraction_above,
    pairwise_correlations,
)
from repro.analysis.reporting import format_table

__all__ = [
    "cdf_at",
    "fraction_above",
    "pairwise_correlations",
    "format_table",
]
