"""The experiments' numbers, pinned exactly.

The claim tests (tests/test_experiments.py, tests/test_ablations.py and
tests/test_extensions.py) assert each figure's ordering, such as
"adaptive beats uniform".  Here the same experiments run at the same
scales, and every RMSE, frequency and δ they report must equal
``tests/data/experiment_digest.json`` bit for bit (stored as
``float.hex``).  A change that means to keep the numbers, such as moving
a figure onto another driver, keeps this file green unchanged.

Left out: Figs. 1, 8 and 12 and Table II, whose numbers pass through
``np.corrcoef``, ``np.linalg`` or ARIMA and LSTM training, which another
numpy or scipy build need not reproduce bit for bit; and the warm-start
ablation's seconds, which are wall-clock.

``tests/data/make_experiment_digest.py`` rewrites the digest; run it
only for a change that is meant to move these numbers.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    run_ablation_deadband,
    run_ablation_offsets,
    run_ablation_reindexing,
    run_ablation_warm_start,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_table1,
    run_table3,
)

DIGEST = Path(__file__).parent / "data" / "experiment_digest.json"

#: Each experiment with the arguments its claim test uses.
RUNS = {
    "fig3": (run_fig3, dict(
        num_nodes=15, num_steps=600, budgets=(0.05, 0.1, 0.3))),
    "fig4": (run_fig4, dict(
        num_nodes=20, num_steps=400, budgets=(0.1, 0.3),
        resources=("cpu",))),
    "fig5": (run_fig5, dict(
        num_nodes=20, num_steps=200, windows=(1, 10),
        resources=("cpu",))),
    "fig6": (run_fig6, dict(
        num_nodes=20, num_steps=200, budgets=(0.3,), resources=("cpu",))),
    "fig7": (run_fig7, dict(
        num_nodes=20, num_steps=200, cluster_counts=(1, 3, 10),
        resources=("cpu",))),
    "fig9": (run_fig9, dict(
        num_nodes=15, num_steps=260, horizons=(1, 5),
        initial_collection=120, retrain_interval=120,
        models=("sample_hold",))),
    "fig10": (run_fig10, dict(
        num_nodes=20, num_steps=200, horizons=(1, 5), start=40)),
    "fig11": (run_fig11, dict(
        num_nodes=20, num_steps=200, horizons=(1, 5), start=40)),
    "table1": (run_table1, dict(num_nodes=20, num_steps=200)),
    "table3": (run_table3, dict(
        num_nodes=20, num_steps=200, m_values=(1, 5),
        m_prime_values=(1, 5), horizons=(1, 5), start=40)),
    "ablation_reindexing": (run_ablation_reindexing, dict(
        num_nodes=25, num_steps=200, start=40, horizons=(1, 5))),
    "ablation_offsets": (run_ablation_offsets, dict(
        num_nodes=25, num_steps=200, start=40, horizons=(1, 5))),
    "ablation_warm_start": (run_ablation_warm_start, dict(
        num_nodes=30, num_steps=200)),
    "ablation_deadband": (run_ablation_deadband, dict(
        num_nodes=25, num_steps=300)),
}

#: Result fields that are not outputs of the method under test.
EXCLUDED = {("ablation_warm_start", "seconds")}


def _flatten(value, path, out):
    """Every number in ``value`` under a ``/``-joined key path."""
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(key, tuple):
                key = "/".join(str(part) for part in key)
            _flatten(item, f"{path}/{key}", out)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for index, item in enumerate(value):
            _flatten(item, f"{path}/{index}", out)
    elif isinstance(value, (float, int, np.floating, np.integer)):
        out[path] = float(value).hex()


def digest(name):
    """Run experiment ``name`` at its pinned scale; its numbers as hex."""
    run, kwargs = RUNS[name]
    result = run(**kwargs)
    out = {}
    for field in dataclasses.fields(result):
        if (name, field.name) not in EXCLUDED:
            _flatten(getattr(result, field.name), field.name, out)
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGEST.read_text())


def test_digest_covers_every_run(pinned):
    assert sorted(pinned) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_numbers_unchanged(name, pinned):
    assert digest(name) == pinned[name]
