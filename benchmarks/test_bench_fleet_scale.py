"""Fleet-scale benchmark: columnar FleetState vs object-per-node.

Sweeps the collection stage over fleet sizes N ∈ {1k, 10k, 100k, 1M}
and compares the execution paths on the same trace:

* **object loop** — the pre-refactor architecture: one ``LocalNode``
  Python object per node, slot-by-slot ``observe``/``send``/``apply``
  (``CollectionSimulation._run_object_loop``).  Skipped beyond
  N = 10k, where it would take minutes.
* **columnar** — the FleetState path: the whole-fleet Lyapunov
  recurrence over the ``(N,)``/``(N, d)`` columns (``collect``).
* **sharded** — the columnar path partitioned into 4 contiguous node
  shards in-process and merged back, pinned bit-identical to
  single-shard.
* **shm pool** — the shards serviced by persistent
  :class:`~repro.simulation.shard_pool.ShardPool` workers over
  ``multiprocessing.shared_memory``: the trace and result columns are
  shared segments, requests never pickle array data.

Asserts the acceptance bars: the columnar path is at least 5× faster
than the object-per-node path at the largest N the reference still
runs; the shared-memory pool is bit-identical to columnar everywhere
and — on a multi-core box — faster than single-process columnar at
N = 1M.

Quick mode — ``REPRO_BENCH_QUICK=1`` — runs only the N = 1k case
(including a shared-memory pool smoke), for CI.
"""

import os
import time

import numpy as np
import pytest

from repro.api import Engine
from repro.core.config import PipelineConfig, TransmissionConfig
from repro.core.types import validate_trace
from repro.simulation.collection import CollectionSimulation, collect
from repro.transmission.adaptive import AdaptiveTransmissionPolicy

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
FLEET_SIZES = (
    (1_000,) if QUICK else (1_000, 10_000, 100_000, 1_000_000)
)
OBJECT_LOOP_MAX_N = 10_000  # beyond this the reference path is minutes
NUM_STEPS = 40
SHARDS = 4
WORKERS = min(SHARDS, os.cpu_count() or 1)
BUDGET = 0.3
MULTI_CORE = (os.cpu_count() or 1) >= 2


def _timeit(fn, *, repeats=3):
    """Best-of-N wall time of ``fn()`` (first call included in timing)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _trace(num_nodes, rng):
    steps = np.cumsum(
        rng.normal(0, 0.02, size=(NUM_STEPS, num_nodes)), axis=0
    )
    return np.clip(0.5 + steps, 0, 1)


@pytest.mark.slow
def test_bench_fleet_scale(record_result):
    rng = np.random.default_rng(0)
    config = TransmissionConfig(budget=BUDGET)
    engine = Engine(PipelineConfig(transmission=config))
    lines = [
        f"collection stage, T={NUM_STEPS} slots, adaptive policy "
        f"(budget {BUDGET}), {SHARDS}-way sharding, "
        f"{WORKERS} pool workers ({os.cpu_count()} cpu)",
        "",
        f"{'N':>8}  {'object/node s':>13}  {'columnar s':>10}  "
        f"{'sharded s':>9}  {'shm pool s':>10}  {'col speedup':>11}",
        f"{'-' * 8}  {'-' * 13}  {'-' * 10}  {'-' * 9}  {'-' * 10}  "
        f"{'-' * 11}",
    ]
    speedups = {}
    rows = []

    for num_nodes in FLEET_SIZES:
        trace = _trace(num_nodes, rng)
        data = validate_trace(trace)
        repeats = 2 if num_nodes >= 1_000_000 else 3

        columnar_s, columnar = _timeit(
            lambda: collect(trace, config), repeats=repeats
        )

        sharded_s, sharded = _timeit(
            lambda: engine._collect_sharded(data, SHARDS, None),
            repeats=repeats,
        )
        np.testing.assert_array_equal(
            columnar.decisions, sharded[0].decisions
        )
        np.testing.assert_array_equal(columnar.stored, sharded[0].stored)

        # Persistent shared-memory workers (pool startup included —
        # that's the real cost an Engine.run caller pays).
        shm_s, shm = _timeit(
            lambda: engine._collect_sharded(data, SHARDS, WORKERS),
            repeats=repeats,
        )
        np.testing.assert_array_equal(columnar.decisions, shm[0].decisions)
        np.testing.assert_array_equal(columnar.stored, shm[0].stored)

        if num_nodes <= OBJECT_LOOP_MAX_N:

            def run_object_loop():
                sim = CollectionSimulation(
                    num_nodes,
                    lambda i: AdaptiveTransmissionPolicy(config),
                )
                return sim._run_object_loop(data.copy())

            object_s, object_result = _timeit(run_object_loop, repeats=1)
            np.testing.assert_array_equal(
                columnar.decisions, object_result.decisions
            )
            np.testing.assert_array_equal(
                columnar.stored, object_result.stored
            )
            speedups[num_nodes] = object_s / columnar_s
            object_part = f"{object_s:>13.3f}"
            speedup_part = f"{speedups[num_nodes]:>10.1f}x"
        else:
            object_s = None
            object_part = f"{'(skipped)':>13}"
            speedup_part = f"{'—':>11}"

        lines.append(
            f"{num_nodes:>8}  {object_part}  {columnar_s:>10.4f}  "
            f"{sharded_s:>9.4f}  {shm_s:>10.4f}  {speedup_part}"
        )
        rows.append(
            {
                "num_nodes": num_nodes,
                "object_s": object_s,
                "columnar_s": columnar_s,
                "sharded_inprocess_s": sharded_s,
                "shm_pool_s": shm_s,
                "columnar_speedup": speedups.get(num_nodes),
            }
        )

    lines += [
        "",
        "sharded (K=4) and the shared-memory worker pool are pinned "
        "bit-identical to single-shard;",
        "beyond N=10k the object-per-node path is skipped (it scales as "
        "N·T Python calls — the",
        "very bottleneck FleetState removes).",
    ]
    record_result(
        "fleet_scale",
        "\n".join(lines),
        data={
            "num_steps": NUM_STEPS,
            "shards": SHARDS,
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "budget": BUDGET,
            "rows": rows,
        },
    )

    # Acceptance bar 1: >= 5x over the object-per-node path at the
    # largest fleet the reference can still run.
    gate = max(n for n in speedups)
    assert speedups[gate] >= 5.0, (
        f"expected >= 5x columnar speedup at N={gate}, got "
        f"{speedups[gate]:.1f}x"
    )

    # Acceptance bar 2: with real parallelism available, the
    # shared-memory sharded path beats single-process columnar at the
    # top of the ladder.  On a single-core box the workers time-slice
    # one CPU, so the comparison is meaningless and skipped.
    top = FLEET_SIZES[-1]
    if MULTI_CORE and top >= 1_000_000:
        top_row = rows[-1]
        assert top_row["shm_pool_s"] < top_row["columnar_s"], (
            f"shared-memory pool ({top_row['shm_pool_s']:.3f}s) did not "
            f"beat single-process columnar "
            f"({top_row['columnar_s']:.3f}s) at N={top}"
        )
