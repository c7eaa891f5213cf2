"""Write golden checkpoint archives and their uninterrupted continuations.

Each ``<name>.ckpt`` is a session snapshot taken mid-run.  Next to it,
``<name>.npz`` holds what the session that never stopped did over the
following slots: the inputs it ingested and the stored values, node
forecasts, labels and centroids it produced (for the scenario archive:
the report's per-slot series and the final session state).
``tests/test_golden_checkpoints.py`` resumes every archive with the
current build and demands the same values bit for bit, so later builds
keep reading the archived format.

The archives in ``format1/`` were written by repro 2.0.0, the last
build that wrote checkpoint format 1, before the ``ses`` session was
added here.  Those in ``format2/`` were written by repro 4.9.0, the
last build that fitted SES weights with scipy, so the ``ses``
continuation pins the in-module minimizer to scipy's output.  To pin
another build, run this script with that build's ``src`` on the path::

    PYTHONPATH=<checkout>/src python tests/data/make_golden.py \
        tests/data/formatN
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Engine
from repro.checkpoint import as_checkpoint
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.scenarios import run_scenario

POLICIES = ("adaptive", "uniform", "deadband", "perfect")
#: Slot at which every session archive is cut.
CUT = 32
#: Slots of uninterrupted continuation stored next to each archive.
CONTINUATION = 15
#: The scenario archive: cut after the join (slot 70) and the crash
#: (slot 100) of ``lossy_churn``.
SCENARIO = "lossy_churn"
SCENARIO_CUT = 110


def config(model="sample_hold", dtype="float64"):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(
            num_clusters=3, history_depth=3, seed=0
        ),
        forecasting=ForecastingConfig(
            model=model,
            max_horizon=3,
            initial_collection=12,
            retrain_interval=12,
            membership_lookback=4,
        ),
        dtype=dtype,
    )


def walk(steps, nodes, seed):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.04, (steps, nodes)), axis=0), 0, 1
    )


def continuation(session, rows):
    """Ingest ``rows`` and return what the session produced."""
    outputs = [session.ingest(row) for row in rows]
    horizons = sorted(outputs[0].node_forecasts)
    return {
        "inputs": np.asarray(rows),
        "stored": np.stack([o.stored for o in outputs]),
        "forecasts": np.stack([
            [o.node_forecasts[h] for h in horizons] for o in outputs
        ]),
        "labels": np.stack([
            [a.labels for a in o.assignments] for o in outputs
        ]),
        "centroids": np.stack([
            [a.centroids for a in o.assignments] for o in outputs
        ]),
        "messages": np.asarray([o.transport.messages for o in outputs]),
    }


def write_session(out, name, cfg, policy, churn, seed):
    """Run a 10-node session to :data:`CUT`, growing by two nodes at
    slot 26 and dropping two at slot 30 when ``churn`` is set."""
    trace = walk(CUT + CONTINUATION, 12, seed)
    session = Engine(cfg, policy=policy).session(10, 1)
    for t in range(CUT):
        if churn and t == 26:
            session.grow(2)
        if churn and t == 30:
            session.compact([0, 1, 2, 4, 5, 6, 7, 9, 10, 11])
        session.ingest(trace[t, : session.num_nodes])
    session.save(out / f"{name}.ckpt")
    rows = trace[CUT:, : session.num_nodes]
    np.savez(out / f"{name}.npz", **continuation(session, rows))


def write_scenario(out):
    run_scenario(
        SCENARIO, until=SCENARIO_CUT,
        checkpoint_path=out / f"{SCENARIO}.ckpt",
    )
    end = SCENARIO_CUT + CONTINUATION
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "final.ckpt"
        report = run_scenario(SCENARIO, until=end, checkpoint_path=path)
        final = as_checkpoint(path).state
    trackers = final["pipeline"]["trackers"]
    saved = as_checkpoint(out / f"{SCENARIO}.ckpt")
    depth = saved.config["clustering"]["history_depth"]
    expected = {
        f"per_slot_{key}": series[SCENARIO_CUT:]
        for key, series in report.per_slot.items()
    }
    expected.update(
        forecasts=np.stack(final["forecasts"]["values"]),
        stored=final["fleet"]["stored"],
        labels=np.stack([t["labels"][-depth:] for t in trackers]),
        centroids=np.stack([t["centroids"] for t in trackers]),
    )
    np.savez(out / f"{SCENARIO}.npz", **expected)


def main(argv):
    # No default directory: a newer build must not overwrite the
    # archives an older one wrote.
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for seed, policy in enumerate(POLICIES):
        write_session(out, policy, config(), policy, True, seed)
    write_session(
        out, "float32_ar", config(model="ar", dtype="float32"),
        "adaptive", False, 7,
    )
    # Fits at slot 11 and refits every 12 slots: the continuation
    # (slots 32-46) refits at slot 35.
    write_session(out, "ses", config(model="ses"), "adaptive", False, 8)
    write_scenario(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
