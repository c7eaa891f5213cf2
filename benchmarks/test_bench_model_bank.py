"""Model-bank benchmark: columnar ForecasterBank vs object-per-cluster.

Sweeps the train+forecast stage over the model-layer size — clusters
K ∈ {8, 32, 128} and group dimensionality d ∈ {1, 4} — and compares
the two execution paths of the same Yule–Walker AR model on the same
centroid tensor:

* **object bank** — the pre-refactor architecture: one scalar
  forecaster per (cluster, dim) series behind the :class:`ObjectBank`
  adapter, fitted/updated/forecast one Python call at a time (the
  per-series ``YuleWalkerAR`` of ``tests/forecaster_oracle.py``);
* **vectorized bank** — :class:`YuleWalkerBank`: one batched
  lag-matrix solve for all K·d series, one array op per update/forecast
  slot.

The workload is the pipeline's steady state: one full (re)fit on the
history, then a run of slots each doing ``update`` + multi-horizon
``forecast``.  Forecasts are asserted bit-identical between the paths
before any timing is reported.

Asserts the refactor's acceptance bar: >= 5x speedup at the largest
swept configuration (K = 128, d = 4 in full mode).

Quick mode — ``REPRO_BENCH_QUICK=1`` — runs only K = 8, d = 1, for CI
smoke.
"""

import os
import time

import numpy as np
import pytest

from forecaster_oracle import oracle_factory
from repro.core.config import ForecastingConfig
from repro.forecasting.bank import ObjectBank, resolve_bank

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
NUM_CLUSTERS = (8,) if QUICK else (8, 32, 128)
DIMS = (1,) if QUICK else (1, 4)
HISTORY_STEPS = 600
FORECAST_SLOTS = 50
HORIZON = 5
MODEL = "ar"


def _tensor(num_clusters, dim, rng):
    walk = np.cumsum(
        rng.normal(0, 0.02, size=(HISTORY_STEPS + FORECAST_SLOTS,
                                  num_clusters, dim)),
        axis=0,
    )
    return 0.5 + walk


def _stage(bank, history, slots):
    """One retrain + a run of update/forecast slots (the paper's steady
    state between retrainings); returns stacked forecasts."""
    bank.fit(history)
    outputs = []
    for values in slots:
        bank.update(values)
        outputs.append(bank.forecast(HORIZON))
    return np.stack(outputs)


def _timeit(fn, *, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.slow
def test_bench_model_bank(record_result):
    rng = np.random.default_rng(0)
    config = ForecastingConfig(model=MODEL)
    lines = [
        f"train+forecast stage, model={MODEL}, T={HISTORY_STEPS} history "
        f"slots, {FORECAST_SLOTS} update+forecast slots, H={HORIZON}",
        "",
        f"{'K':>4}  {'d':>2}  {'series':>6}  {'object s':>9}  "
        f"{'bank s':>8}  {'speedup':>8}",
        f"{'-' * 4}  {'-' * 2}  {'-' * 6}  {'-' * 9}  {'-' * 8}  {'-' * 8}",
    ]
    speedups = {}

    for num_clusters in NUM_CLUSTERS:
        for dim in DIMS:
            data = _tensor(num_clusters, dim, rng)
            history, slots = data[:HISTORY_STEPS], data[HISTORY_STEPS:]

            object_s, object_out = _timeit(
                lambda: _stage(
                    ObjectBank(oracle_factory(config), num_clusters, dim),
                    history,
                    slots,
                ),
                repeats=1 if num_clusters >= 128 else 2,
            )
            bank_s, bank_out = _timeit(
                lambda: _stage(
                    resolve_bank(config, num_clusters=num_clusters, dim=dim),
                    history,
                    slots,
                )
            )
            np.testing.assert_array_equal(bank_out, object_out)

            speedups[(num_clusters, dim)] = object_s / bank_s
            lines.append(
                f"{num_clusters:>4}  {dim:>2}  {num_clusters * dim:>6}  "
                f"{object_s:>9.3f}  {bank_s:>8.4f}  "
                f"{speedups[(num_clusters, dim)]:>7.1f}x"
            )

    lines += [
        "",
        "bank forecasts asserted bit-identical to the object path at "
        "every configuration; the",
        "object path scales as K·d Python calls per slot — the model-"
        "layer analogue of the",
        "object-per-node loop the FleetState refactor removed.",
    ]
    record_result("model_bank", "\n".join(lines))

    gate = max(speedups)
    assert speedups[gate] >= 5.0, (
        f"expected >= 5x bank speedup at (K, d)={gate}, got "
        f"{speedups[gate]:.1f}x"
    )
