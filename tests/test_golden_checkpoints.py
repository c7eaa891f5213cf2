"""Golden archives: checkpoints written by earlier builds still resume.

``tests/data/format1/`` holds checkpoints written by repro 2.0.0
(checkpoint format 1) together with what the session that never
stopped produced next (see ``tests/data/make_golden.py``): one session
per transmission policy with a grow and a compact just before the cut,
a float32 AR session, and a linked ``lossy_churn`` replay cut after its
join and its crash.  Every archive must resume with this build and
continue bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import Engine
from repro.checkpoint import as_checkpoint
from repro.scenarios import run_scenario

FORMAT1 = Path(__file__).parent / "data" / "format1"
SESSIONS = ("adaptive", "uniform", "deadband", "perfect", "float32_ar")


def resume(path):
    checkpoint = as_checkpoint(path)
    engine = Engine.from_config(
        checkpoint.config, policy=checkpoint.session["policy"]
    )
    return checkpoint, engine.resume(checkpoint)


@pytest.mark.parametrize("name", SESSIONS)
def test_session_archive_resumes_bit_identically(name):
    checkpoint, session = resume(FORMAT1 / f"{name}.ckpt")
    assert checkpoint.version == 1
    expected = np.load(FORMAT1 / f"{name}.npz")
    for i, row in enumerate(expected["inputs"]):
        output = session.ingest(row)
        np.testing.assert_array_equal(output.stored, expected["stored"][i])
        horizons = sorted(output.node_forecasts)
        np.testing.assert_array_equal(
            np.stack([output.node_forecasts[h] for h in horizons]),
            expected["forecasts"][i],
        )
        for g, assignment in enumerate(output.assignments):
            np.testing.assert_array_equal(
                assignment.labels, expected["labels"][i, g]
            )
            np.testing.assert_array_equal(
                assignment.centroids, expected["centroids"][i, g]
            )
        assert output.transport.messages == expected["messages"][i]


def test_format1_archive_restores_only_the_label_window():
    checkpoint, session = resume(FORMAT1 / "adaptive.ckpt")
    depth = checkpoint.config["clustering"]["history_depth"]
    archived = checkpoint.state["pipeline"]["trackers"][0]
    assert archived["labels"].shape[0] == checkpoint.session["time"]
    restored = session.pipeline.tracker(0).get_state()
    np.testing.assert_array_equal(
        restored["labels"], archived["labels"][-depth:]
    )
    np.testing.assert_array_equal(
        restored["centroids"], archived["centroids"]
    )


def test_scenario_archive_resumes_bit_identically(tmp_path):
    expected = np.load(FORMAT1 / "lossy_churn.npz")
    slots = expected["per_slot_fleet_size"].size
    start = as_checkpoint(FORMAT1 / "lossy_churn.ckpt").session["time"]
    final = tmp_path / "final.ckpt"
    report = run_scenario(
        "lossy_churn",
        until=start + slots,
        resume_from=FORMAT1 / "lossy_churn.ckpt",
        checkpoint_path=final,
    )
    assert report.slots == slots
    for key, series in report.per_slot.items():
        np.testing.assert_array_equal(series, expected[f"per_slot_{key}"])
    state = as_checkpoint(final).state
    np.testing.assert_array_equal(
        np.stack(state["forecasts"]["values"]), expected["forecasts"]
    )
    np.testing.assert_array_equal(
        state["fleet"]["stored"], expected["stored"]
    )
    trackers = state["pipeline"]["trackers"]
    np.testing.assert_array_equal(
        np.stack([t["labels"] for t in trackers]), expected["labels"]
    )
    np.testing.assert_array_equal(
        np.stack([t["centroids"] for t in trackers]), expected["centroids"]
    )
