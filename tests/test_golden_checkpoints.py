"""Golden archives: checkpoints written by earlier builds still resume.

``tests/data/format1/`` holds checkpoints written by repro 2.0.0
(checkpoint format 1) and ``tests/data/format2/`` checkpoints written
by repro 4.9.0 (format 2), each together with what the session that
never stopped produced next (see ``tests/data/make_golden.py``): one
session per transmission policy with a grow and a compact just before
the cut, a float32 AR session, and a linked ``lossy_churn`` replay cut
after its join and its crash.  ``format2/`` adds an SES session whose
continuation refits the SES weights, which 4.9.0 fitted with scipy.
Every archive must resume with this build and continue bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.forecasting.bank
from repro.api import Engine
from repro.checkpoint import as_checkpoint
from repro.scenarios import run_scenario

DATA = Path(__file__).parent / "data"
FORMAT1 = DATA / "format1"
FORMAT2 = DATA / "format2"
SESSIONS = ("adaptive", "uniform", "deadband", "perfect", "float32_ar")
#: (directory, checkpoint format, sessions archived there, id prefix);
#: the format-1 cases keep the ids they had before format 2 was added.
FORMATS = (
    (FORMAT1, 1, SESSIONS, ""),
    (FORMAT2, 2, SESSIONS + ("ses",), "format2-"),
)


def resume(path):
    checkpoint = as_checkpoint(path)
    engine = Engine.from_config(
        checkpoint.config, policy=checkpoint.session["policy"]
    )
    return checkpoint, engine.resume(checkpoint)


@pytest.mark.parametrize("directory,version,name", [
    pytest.param(directory, version, name, id=prefix + name)
    for directory, version, names, prefix in FORMATS
    for name in names
])
def test_session_archive_resumes_bit_identically(
    directory, version, name, monkeypatch
):
    checkpoint, session = resume(directory / f"{name}.ckpt")
    assert checkpoint.version == version
    fit_ses_alpha = repro.forecasting.bank.fit_ses_alpha
    ses_fits = []

    def counted(series):
        ses_fits.append(series.size)
        return fit_ses_alpha(series)

    monkeypatch.setattr(repro.forecasting.bank, "fit_ses_alpha", counted)
    expected = np.load(directory / f"{name}.npz")
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
    # The SES continuation refits with this build's minimizer: its
    # forecasts then pin it to the weights the archiving build fitted.
    if checkpoint.config["forecasting"]["model"] == "ses":
        assert ses_fits
    else:
        assert not ses_fits


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
    check_scenario_archive(FORMAT1, 1, tmp_path)


def test_format2_scenario_archive_resumes_bit_identically(tmp_path):
    check_scenario_archive(FORMAT2, 2, tmp_path)


def check_scenario_archive(directory, version, tmp_path):
    expected = np.load(directory / "lossy_churn.npz")
    slots = expected["per_slot_fleet_size"].size
    archived = as_checkpoint(directory / "lossy_churn.ckpt")
    assert archived.version == version
    final = tmp_path / "final.ckpt"
    report = run_scenario(
        "lossy_churn",
        until=archived.session["time"] + slots,
        resume_from=directory / "lossy_churn.ckpt",
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
