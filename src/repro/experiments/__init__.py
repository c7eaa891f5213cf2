"""Experiment registry: one entry per table/figure of the paper.

Every ``run_*`` function accepts scale parameters so the whole harness
runs at laptop scale; the defaults are the configurations recorded in
EXPERIMENTS.md.  The ``EXPERIMENTS`` mapping is what the benchmark
modules and the ``examples/reproduce_paper.py`` driver iterate over.
"""

from typing import Callable, Dict

from repro.experiments.ablations import (
    DeadbandAblationResult,
    OffsetAblationResult,
    ReindexingAblationResult,
    WarmStartAblationResult,
    run_ablation_deadband,
    run_ablation_offsets,
    run_ablation_reindexing,
    run_ablation_warm_start,
)
from repro.experiments.fig1_correlation import Fig1Result, run_fig1
from repro.experiments.fig3_transmission import Fig3Result, run_fig3
from repro.experiments.fig4_adaptive_vs_uniform import Fig4Result, run_fig4
from repro.experiments.fig5_temporal_window import Fig5Result, run_fig5
from repro.experiments.fig6_rmse_vs_b import Fig6Result, run_fig6
from repro.experiments.fig7_rmse_vs_k import Fig7Result, run_fig7
from repro.experiments.fig8_centroid_tracking import Fig8Result, run_fig8
from repro.experiments.fig9_forecast_models import Fig9Result, run_fig9
from repro.experiments.fig10_clustering_methods import Fig10Result, run_fig10
from repro.experiments.fig11_similarity import Fig11Result, run_fig11
from repro.experiments.fig12_gaussian import Fig12Result, run_fig12
from repro.experiments.table1_scalar_vs_vector import Table1Result, run_table1
from repro.experiments.table2_training_time import Table2Result, run_table2
from repro.experiments.table3_m_mprime import Table3Result, run_table3

#: Experiment id → runner, in paper order.  Fig. 2 is the architecture
#: diagram (no data); Table IV is produced by the Fig. 12 runner.
EXPERIMENTS: Dict[str, Callable] = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "table1": run_table1,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "table2": run_table2,
    "table3": run_table3,
    "fig11": run_fig11,
    "fig12": run_fig12,
    # Ablations of design choices (not in the paper; see DESIGN.md).
    "ablation_reindexing": run_ablation_reindexing,
    "ablation_offsets": run_ablation_offsets,
    "ablation_warm_start": run_ablation_warm_start,
    "ablation_deadband": run_ablation_deadband,
}

__all__ = [
    "EXPERIMENTS",
    "run_ablation_deadband",
    "run_ablation_offsets",
    "run_ablation_reindexing",
    "run_ablation_warm_start",
    "DeadbandAblationResult",
    "OffsetAblationResult",
    "ReindexingAblationResult",
    "WarmStartAblationResult",
    "run_fig1",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_table1",
    "run_table2",
    "run_table3",
    "Fig1Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "Fig12Result",
    "Table1Result",
    "Table2Result",
    "Table3Result",
]
