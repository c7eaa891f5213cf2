#!/usr/bin/env python3
"""Capacity planning: place new tasks on machines forecast to have headroom.

The paper's motivating application (Sec. I): a controller receiving
intermittent utilization reports must assign incoming tasks to machines
that are *predicted* to have the most available resources — not the ones
that merely look idle right now.

This example runs the online pipeline over a Google-like trace and, at
the decision point, ranks machines by forecasted CPU headroom ``1 − x̂``
at horizon h.  It then scores the placement quality against an oracle
that knows the true future utilization, and against a naive policy that
ranks by the latest *stored* (possibly stale) measurements.

Run:
    python examples/capacity_planning.py
"""

import numpy as np

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.datasets import load_google_like

NUM_NODES = 80
NUM_STEPS = 450
HORIZON = 5
TASKS_TO_PLACE = 10
DECISION_POINTS = range(320, 440, 10)


def headroom_overlap(chosen: np.ndarray, truth_at_target: np.ndarray) -> float:
    """Fraction of chosen machines that are in the true top-K headroom set."""
    oracle = set(np.argsort(truth_at_target)[:TASKS_TO_PLACE].tolist())
    return len(oracle & set(chosen.tolist())) / TASKS_TO_PLACE


def main() -> None:
    dataset = load_google_like(num_nodes=NUM_NODES, num_steps=NUM_STEPS)
    cpu = dataset.resource("cpu")

    config = PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=3, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=HORIZON,
            initial_collection=300,
            retrain_interval=150,
        ),
    )
    # Streaming deployment: the fleet's adaptive transmissions, the
    # central store and the pipeline advanced one slot at a time.
    session = Engine(config).session(NUM_NODES, 1)
    outputs = [session.ingest(cpu[t]) for t in range(NUM_STEPS)]

    forecast_scores = []
    stale_scores = []
    for t in DECISION_POINTS:
        target = t + HORIZON
        if target >= NUM_STEPS or outputs[t].node_forecasts is None:
            continue
        predicted = outputs[t].node_forecasts[HORIZON][:, 0]
        chosen_forecast = np.argsort(predicted)[:TASKS_TO_PLACE]
        chosen_stale = np.argsort(outputs[t].stored[:, 0])[:TASKS_TO_PLACE]
        forecast_scores.append(headroom_overlap(chosen_forecast, cpu[target]))
        stale_scores.append(headroom_overlap(chosen_stale, cpu[target]))

    print(f"placing {TASKS_TO_PLACE} tasks at {len(forecast_scores)} "
          f"decision points, horizon h={HORIZON}")
    print(f"  forecast-driven placement overlap with oracle: "
          f"{np.mean(forecast_scores):.2%}")
    print(f"  stale-measurement placement overlap with oracle: "
          f"{np.mean(stale_scores):.2%}")
    if np.mean(forecast_scores) >= np.mean(stale_scores):
        print("  -> forecasting improves placement over reacting to "
              "stale reports")


if __name__ == "__main__":
    main()
