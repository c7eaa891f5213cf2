"""Scenario-engine overhead benchmark: link models vs bare session.

Measures slots/sec of the trace-replay harness under three link
regimes over the same Alibaba-like trace and pipeline configuration:

* **bare** — a plain streaming session, no link (the PR-5 baseline);
* **ideal** — :class:`~repro.scenarios.links.IdealLink` interposed
  (bit-identical outputs by contract — asserted here on the message
  counters before any timing is reported);
* **lossy** — a full :class:`~repro.scenarios.links.NetworkLink` with
  i.i.d. + burst loss, two shared uplinks and one slot of latency, so
  every delivery takes the late-arrival re-ingestion path.

The interesting number is the overhead column: what a scenario costs
relative to the bare session at the same fleet size.  The acceptance
bar is generous (ideal <= 1.5x bare, lossy <= 4x bare): the link moves
each slot's messages (at most one per node) as columns in a few array
operations, and the bar exists to catch per-message or quadratic
behavior creeping back.

Quick mode — ``REPRO_BENCH_QUICK=1`` — runs the small fleet and the
N = 10,000 one, for CI smoke, so the link is exercised at scale.
"""

import os
import time

import numpy as np
import pytest

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.datasets import load_alibaba_like
from repro.scenarios import IdealLink, LinkConfig, NetworkLink

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
FLEET_SIZES = (200, 10_000) if QUICK else (200, 1_000, 10_000)
SLOTS = 40 if QUICK else 120
IDEAL_OVERHEAD_BAR = 1.5
LOSSY_OVERHEAD_BAR = 4.0

LOSSY = LinkConfig(
    loss=0.05,
    burst_enter=0.05, burst_exit=0.35, burst_loss=0.8,
    latency=1,
    uplinks=2, uplink_capacity=10**9,
    seed=104,
)


def _config():
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=3, seed=0, warm_start=True),
        forecasting=ForecastingConfig(
            model="sample_hold",
            initial_collection=10,
            retrain_interval=200,
            max_horizon=3,
        ),
    )


def _drive(num_nodes, trace, link):
    session = Engine(_config(), policy="adaptive").session(
        num_nodes, 1, reorder_window=8, link=link
    )
    started = time.perf_counter()
    for t in range(trace.shape[0]):
        if link is not None:
            for origin, ids, values in link.due(t):
                session.ingest(values, ids, t=origin)
        session.ingest(trace[t][:, np.newaxis])
    return session, time.perf_counter() - started


@pytest.mark.slow
def test_bench_scenario_overhead(record_result):
    lines = [
        f"trace-replay harness cost, adaptive policy, {SLOTS} slots, "
        "K=3, sample-hold bank, H=3",
        "(bare = no link; ideal = pass-through IdealLink; lossy = "
        "NetworkLink with i.i.d.+burst",
        "loss, 2 shared uplinks, latency 1 — every delivery re-ingested "
        "as a late arrival)",
        "",
        f"{'N':>6}  {'bare slots/s':>12}  {'ideal slots/s':>13}  "
        f"{'lossy slots/s':>13}  {'ideal ovhd':>10}  {'lossy ovhd':>10}",
        f"{'-' * 6}  {'-' * 12}  {'-' * 13}  {'-' * 13}  {'-' * 10}  "
        f"{'-' * 10}",
    ]
    worst_ideal = worst_lossy = 0.0
    for num_nodes in FLEET_SIZES:
        trace = load_alibaba_like(
            num_nodes=num_nodes, num_steps=SLOTS
        ).resource("cpu")

        bare, bare_seconds = _drive(num_nodes, trace, None)
        ideal, ideal_seconds = _drive(num_nodes, trace, IdealLink(num_nodes))
        lossy_link = NetworkLink(num_nodes, LOSSY)
        lossy, lossy_seconds = _drive(num_nodes, trace, lossy_link)

        # The ideal link is invisible: identical stored state and
        # message counters (asserted before any timing is reported).
        np.testing.assert_array_equal(bare.fleet.stored, ideal.fleet.stored)
        assert (
            bare.transport_stats.messages == ideal.transport_stats.messages
        )
        assert lossy_link.is_conserved

        ideal_overhead = ideal_seconds / bare_seconds
        lossy_overhead = lossy_seconds / bare_seconds
        worst_ideal = max(worst_ideal, ideal_overhead)
        worst_lossy = max(worst_lossy, lossy_overhead)
        lines.append(
            f"{num_nodes:>6}  {SLOTS / bare_seconds:>12.1f}  "
            f"{SLOTS / ideal_seconds:>13.1f}  "
            f"{SLOTS / lossy_seconds:>13.1f}  "
            f"{ideal_overhead:>9.2f}x  {lossy_overhead:>9.2f}x"
        )

    lines += [
        "",
        "ideal-link outputs asserted bit-identical to the bare session "
        "before timing; the lossy",
        "link's conservation invariant (sent = delivered + dropped + "
        "in flight) asserted after.",
    ]
    record_result("scenarios", "\n".join(lines))

    assert worst_ideal <= IDEAL_OVERHEAD_BAR, (
        f"IdealLink costs {worst_ideal:.2f}x the bare session "
        f"(bar: {IDEAL_OVERHEAD_BAR}x)"
    )
    assert worst_lossy <= LOSSY_OVERHEAD_BAR, (
        f"NetworkLink costs {worst_lossy:.2f}x the bare session "
        f"(bar: {LOSSY_OVERHEAD_BAR}x)"
    )
