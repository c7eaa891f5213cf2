#!/usr/bin/env python3
"""Anomaly detection: flag machines that deviate from their forecast.

The paper lists anomaly detection as a target application of the
forecasting mechanism (Sec. I).  The idea: the pipeline's per-node
forecast ``x̂_{i,t+h}`` is the *expected* behaviour of machine ``i``; a
machine whose reports keep deviating from its forecast far beyond its
own typical residual is anomalous.

The detector here keeps a per-node residual baseline (median + MAD,
robust to bursts) and requires ``PERSISTENCE`` consecutive violations
before flagging, so isolated workload spikes do not alarm.  Synthetic
anomalies (machines pinned at ~95% CPU) are injected into an
Alibaba-like trace and precision/recall are reported.

Run:
    python examples/anomaly_detection.py
"""

import numpy as np

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.datasets import load_alibaba_like

NUM_NODES = 60
NUM_STEPS = 420
HORIZON = 5
ANOMALY_START = 330
ANOMALOUS_NODES = (3, 17, 42)
THRESHOLD_SIGMA = 6.0
PERSISTENCE = 3
BASELINE_WINDOW = 60


def main() -> None:
    dataset = load_alibaba_like(num_nodes=NUM_NODES, num_steps=NUM_STEPS)
    cpu = dataset.resource("cpu").copy()
    rng = np.random.default_rng(0)
    for node in ANOMALOUS_NODES:
        cpu[ANOMALY_START:, node] = np.clip(
            0.95 + rng.normal(0, 0.02, NUM_STEPS - ANOMALY_START), 0, 1
        )

    config = PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=3, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=HORIZON,
            initial_collection=250,
            retrain_interval=150,
        ),
    )
    session = Engine(config).session(NUM_NODES, 1)

    residuals = []  # rows: per-step |stored - forecast| per node
    violations = np.zeros(NUM_NODES, dtype=int)
    flagged = {}
    # Forecasts issued h steps ago are compared against today's reports;
    # the longer horizon keeps the forecaster from absorbing a sustained
    # anomaly before it can be noticed.
    forecast_queue = []
    for t in range(NUM_STEPS):
        output = session.ingest(cpu[t])
        matured = None
        if len(forecast_queue) >= HORIZON:
            matured = forecast_queue.pop(0)
        if matured is not None:
            residual = np.abs(output.stored[:, 0] - matured)
            if len(residuals) >= BASELINE_WINDOW:
                window = np.stack(residuals[-BASELINE_WINDOW:])
                median = np.median(window, axis=0)
                mad = np.median(np.abs(window - median), axis=0) + 1e-6
                threshold = median + THRESHOLD_SIGMA * 1.4826 * mad
                violating = residual > threshold
                violations = np.where(violating, violations + 1, 0)
                for node in np.flatnonzero(violations == PERSISTENCE):
                    if node not in flagged:
                        flagged[int(node)] = t
                        print(f"  t={t}: node {node} flagged after "
                              f"{PERSISTENCE} consecutive violations "
                              f"(residual {residual[node]:.3f} > "
                              f"{threshold[node]:.3f})")
            residuals.append(residual)
        if output.node_forecasts is not None:
            forecast_queue.append(output.node_forecasts[HORIZON][:, 0])

    truth = set(ANOMALOUS_NODES)
    true_positives = len(set(flagged) & truth)
    precision = true_positives / len(flagged) if flagged else 0.0
    recall = true_positives / len(truth)
    detection_delays = [
        flagged[n] - ANOMALY_START for n in sorted(set(flagged) & truth)
    ]
    print(f"\ninjected anomalies: {sorted(truth)} at t={ANOMALY_START}")
    print(f"flagged: {sorted(flagged)}")
    print(f"precision: {precision:.2f}  recall: {recall:.2f}  "
          f"detection delays: {detection_delays} steps")
    print("\nNotes: the trace generator also injects fleet-level regime "
          "shifts (real workload migrations); nodes flagged outside the "
          "injected set usually coincide with those, and a machine whose "
          "normal envelope already reaches saturation (high variance) "
          "cannot be distinguished from its own busy periods.")


if __name__ == "__main__":
    main()
