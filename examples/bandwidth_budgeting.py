#!/usr/bin/env python3
"""Bandwidth budgeting: choose the transmission budget B for a deployment.

The budget ``B`` is directly proportional to monitoring bandwidth
(Sec. II of the paper).  This example runs the registered collection
backends over a recorded trace — the adaptive Lyapunov policy and
uniform sampling with the backend's seeded, staggered phases — and
derives message and byte counts from each node's transmissions
(``TransportStats.from_node_counts``, as ``Engine.run`` does) to show
the operator-facing trade-off: bytes on the wire vs staleness error.

Run:
    python examples/bandwidth_budgeting.py
"""

import numpy as np

from repro.core.config import TransmissionConfig
from repro.core.metrics import instantaneous_rmse, time_averaged_rmse
from repro.datasets import load_bitbrains_like
from repro.simulation.collection import collect
from repro.simulation.transport import TransportStats

NUM_NODES = 50
NUM_STEPS = 600
BUDGETS = (0.05, 0.1, 0.2, 0.3, 0.5)


def staleness_rmse(stored, truth):
    return time_averaged_rmse(
        instantaneous_rmse(stored[t, :, 0], truth[t])
        for t in range(truth.shape[0])
    )


def main() -> None:
    dataset = load_bitbrains_like(num_nodes=NUM_NODES, num_steps=NUM_STEPS)
    cpu = dataset.resource("cpu")

    print(f"{'B':>5}  {'policy':<9} {'messages':>9} {'KiB':>8} "
          f"{'freq':>6} {'RMSE(h=0)':>10}")
    for budget in BUDGETS:
        config = TransmissionConfig(budget=budget)
        for name in ("adaptive", "uniform"):
            result = collect(cpu, config, backend=name)
            stats = TransportStats.from_node_counts(
                result.decisions.sum(axis=0).astype(np.int64),
                floats_per_message=result.stored.shape[2],
            )
            kib = stats.payload_bytes() / 1024
            print(f"{budget:>5.2f}  {name:<9} {stats.messages:>9d} "
                  f"{kib:>8.1f} {result.empirical_frequency:>6.3f} "
                  f"{staleness_rmse(result.stored, cpu):>10.4f}")
    print("\nReading the table: pick the smallest B whose RMSE is "
          "acceptable; adaptive gives a lower error at the same byte "
          "budget.")


if __name__ == "__main__":
    main()
