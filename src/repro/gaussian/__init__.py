"""Gaussian monitor-selection baselines (Silvestri et al., ICDCS 2015).

Used by the Sec. VI-E comparison (Fig. 12, Table IV).  See DESIGN.md §3
for how the Top-W / Top-W-Update / Batch Selection algorithms were
interpreted from the cited work.
"""

from repro.gaussian.covariance import GaussianModel, estimate_gaussian
from repro.gaussian.inference import infer_unobserved
from repro.gaussian.monitor import (
    BatchSelectionScheme,
    MinimumDistanceScheme,
    MonitoringEvaluation,
    MonitoringScheme,
    ProposedMonitorScheme,
    TopWScheme,
    TopWUpdateScheme,
    evaluate_scheme,
)
from repro.gaussian.selection import (
    batch_selection,
    random_selection,
    top_w_selection,
)

__all__ = [
    "GaussianModel",
    "estimate_gaussian",
    "infer_unobserved",
    "BatchSelectionScheme",
    "MinimumDistanceScheme",
    "MonitoringEvaluation",
    "MonitoringScheme",
    "ProposedMonitorScheme",
    "TopWScheme",
    "TopWUpdateScheme",
    "evaluate_scheme",
    "batch_selection",
    "random_selection",
    "top_w_selection",
]
