"""Checkpoint/resume tests (repro.checkpoint + Engine.resume).

The core property, enforced across every registered transmission policy
and every forecaster bank (object bank included): snapshot a session at
an arbitrary slot, resume it in a fresh engine, and every future output
— forecasts, cluster assignments, transport counters — is bit-identical
to the session that never stopped.
"""

import ast
import errno
import gc
import io
import json
import mmap
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tokenize
import tracemalloc
import warnings
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.checkpoint as checkpoint_module
from forecaster_oracle import (
    MeanForecaster,
    SimpleExponentialSmoothing,
    YuleWalkerAR,
    oracle_factory,
)
from repro.api import Engine
from repro.checkpoint import (
    _NPY_DTYPES,
    _RELEASE_CAP,
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    _encode,
    _npy_header,
    as_checkpoint,
    config_mismatch,
    state_equal,
)
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.pipeline import ForecastFactors
from repro.core.ring import SlotSeries
from repro.exceptions import CheckpointError, DataError, ReproError
from repro.forecasting.base import Forecaster
from repro.forecasting.sample_hold import SampleHoldForecaster

FORMAT1 = Path(__file__).parent / "data" / "format1"
POLICIES = ("adaptive", "uniform", "deadband", "perfect")
#: (model, path) pairs covering every vectorized bank plus the object
#: bank adapter ("object": sample_hold's per-series oracle passed as the
#: forecaster_factory, so it runs behind ObjectBank; and holt, which has
#: no vectorized bank at all).
BANKS = (
    ("sample_hold", "auto"),
    ("mean", "auto"),
    ("ses", "auto"),
    ("ar", "auto"),
    ("sample_hold", "object"),
    ("holt", "auto"),
)


def config(model="sample_hold", initial=12, horizon=2):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=2, seed=0),
        forecasting=ForecastingConfig(
            model=model,
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


def bank_kwargs(cfg, bank):
    """Engine keywords running ``cfg``'s model on the ``BANKS`` path."""
    if bank == "object":
        return {"forecaster_factory": oracle_factory(cfg.forecasting)}
    return {}


def walk_trace(steps=36, nodes=6, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.04, (steps, nodes)), axis=0), 0, 1
    )


def assert_outputs_equal(a, b):
    np.testing.assert_array_equal(a.stored, b.stored)
    for x, y in zip(a.assignments, b.assignments):
        np.testing.assert_array_equal(x.labels, y.labels)
        np.testing.assert_array_equal(x.centroids, y.centroids)
    assert (a.node_forecasts is None) == (b.node_forecasts is None)
    if a.node_forecasts is not None:
        for h in a.node_forecasts:
            np.testing.assert_array_equal(
                a.node_forecasts[h], b.node_forecasts[h]
            )
    assert a.transport.messages == b.transport.messages


def roundtrip_is_bit_identical(cfg, trace, cut, tmp_path, **session_kwargs):
    """Run uninterrupted vs snapshot-at-cut + resume; compare bitwise."""
    steps = trace.shape[0]
    baseline = Engine(cfg, **session_kwargs).session(trace.shape[1], 1)
    outputs = [baseline.ingest(trace[t]) for t in range(steps)]

    interrupted = Engine(cfg, **session_kwargs).session(trace.shape[1], 1)
    for t in range(cut):
        interrupted.ingest(trace[t])
    path = interrupted.save(tmp_path / "session.ckpt")
    resumed = Engine(cfg, **session_kwargs).resume(path)
    assert resumed.time == cut
    for t in range(cut, steps):
        assert_outputs_equal(outputs[t], resumed.ingest(trace[t]))
    assert (
        baseline.transport_stats.messages
        == resumed.transport_stats.messages
    )
    assert (
        baseline.transport_stats.payload_floats
        == resumed.transport_stats.payload_floats
    )
    np.testing.assert_array_equal(
        baseline.fleet.policy_state, resumed.fleet.policy_state
    )
    np.testing.assert_array_equal(
        baseline.fleet.message_counts, resumed.fleet.message_counts
    )


#: The release-thread tests read this process's descriptors and maps.
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads /proc/self (Linux)"
)


def open_files(directory):
    """This process's descriptors on files in ``directory``, by fd."""
    prefix = f"{os.path.realpath(directory)}/"
    found = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue  # closed since the listing
        if target.startswith(prefix):
            found[int(name)] = target
    return found


def deleted_files(directory):
    """Descriptors on files in ``directory`` that were replaced."""
    return {
        fd: target for fd, target in open_files(directory).items()
        if target.endswith(" (deleted)")
    }


def eventually(condition, timeout=30.0):
    """Poll ``condition`` until it holds or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class TestRoundTripBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(seed=st.integers(0, 10_000), cut=st.integers(1, 35))
    @settings(max_examples=6, deadline=None)
    def test_every_policy(self, policy, tmp_path_factory, seed, cut):
        tmp_path = tmp_path_factory.mktemp("ck")
        cfg = config()
        trace = walk_trace(seed=seed)
        roundtrip_is_bit_identical(cfg, trace, cut, tmp_path, policy=policy)

    @pytest.mark.parametrize("model,bank", BANKS)
    @given(seed=st.integers(0, 10_000), cut=st.integers(5, 30))
    @settings(max_examples=4, deadline=None)
    def test_every_bank(self, model, bank, tmp_path_factory, seed, cut):
        tmp_path = tmp_path_factory.mktemp("ck")
        cfg = config(model=model)
        trace = walk_trace(seed=seed)
        roundtrip_is_bit_identical(
            cfg, trace, cut, tmp_path, **bank_kwargs(cfg, bank)
        )

    def test_object_loop_session_roundtrip(self, tmp_path):
        """Archives written by 1.x sessions carry slot-path flags and,
        from object-loop sessions, per-node policy states.  Resume
        ignores them and continues bit-identically, for every policy
        and both 1.x slot paths."""
        cfg = config()
        trace = walk_trace(seed=4)
        for policy in POLICIES:
            baseline = Engine(cfg, policy=policy).session(6, 1)
            outputs = [baseline.ingest(trace[t]) for t in range(36)]
            for object_loop in (False, True):
                interrupted = Engine(cfg, policy=policy).session(6, 1)
                for t in range(17):
                    interrupted.ingest(trace[t])
                checkpoint = interrupted.snapshot()
                fleet = interrupted.fleet
                checkpoint.session["vectorized"] = not object_loop
                checkpoint.session["custom_policy_factory"] = False
                checkpoint.state["policies"] = [
                    {"queue": float(queue), "time": int(clock)}
                    for queue, clock in zip(fleet.policy_state, fleet.times)
                ] if object_loop else None
                path = checkpoint.save(
                    tmp_path / f"{policy}-{int(object_loop)}.ckpt"
                )
                resumed = Engine(cfg, policy=policy).resume(path)
                for t in range(17, 36):
                    assert_outputs_equal(outputs[t], resumed.ingest(trace[t]))
                np.testing.assert_array_equal(
                    baseline.fleet.policy_state, resumed.fleet.policy_state
                )

    def test_snapshot_drops_1x_slot_path_fields(self):
        session = Engine(config()).session(4, 1)
        session.ingest(walk_trace(steps=1, nodes=4)[0])
        checkpoint = session.snapshot()
        assert checkpoint.version == CHECKPOINT_FORMAT_VERSION == 3
        for key in ("vectorized", "custom_policy_factory"):
            assert key not in checkpoint.session
        assert "policies" not in checkpoint.state

    def test_roundtrip_preserves_late_counters(self, tmp_path):
        cfg = config()
        session = Engine(cfg).session(4, 1, reorder_window=2)
        trace = walk_trace(steps=6, nodes=4, seed=1)
        session.ingest(trace[0])
        session.ingest(trace[1][:2], node_ids=[0, 1])
        session.ingest(trace[1][3:], node_ids=[3], t=1)
        session.ingest(trace[0][:1], node_ids=[0], t=0)
        resumed = Engine(cfg).resume(session.save(tmp_path / "late.ckpt"))
        assert resumed.reorder_window == 2
        assert resumed.late_applied == session.late_applied == 1
        assert resumed.late_dropped == session.late_dropped == 1

    def test_resumed_session_serves_forecasts_immediately(self, tmp_path):
        """forecast() works right after resume, before any new ingest."""
        cfg = config(initial=10)
        session = Engine(cfg).session(6, 1)
        trace = walk_trace(steps=20, seed=11)
        for t in range(20):
            session.ingest(trace[t])
        expected = session.forecast()
        resumed = Engine(cfg).resume(session.save(tmp_path / "f.ckpt"))
        restored = resumed.forecast()
        assert set(restored) == set(expected)
        for h in expected:
            np.testing.assert_array_equal(expected[h], restored[h])

    def test_resume_before_forecasting_still_raises(self, tmp_path):
        from repro.exceptions import NotFittedError

        cfg = config(initial=50)
        session = Engine(cfg).session(4, 1)
        session.ingest(walk_trace(steps=1, nodes=4)[0])
        resumed = Engine(cfg).resume(session.save(tmp_path / "e.ckpt"))
        with pytest.raises(NotFittedError):
            resumed.forecast()

    def test_save_is_atomic_over_existing_checkpoint(self, tmp_path):
        """A failed save never destroys the previous good artifact."""
        cfg = config()
        session = Engine(cfg).session(4, 1)
        session.ingest(walk_trace(steps=1, nodes=4)[0])
        path = tmp_path / "stable.ckpt"
        session.save(path)
        good = path.read_bytes()
        # Sabotage the next snapshot so save() fails mid-assembly.
        checkpoint = session.snapshot()
        checkpoint.state["poison"] = object()
        with pytest.raises(CheckpointError):
            checkpoint.save(path)
        assert path.read_bytes() == good
        assert list(tmp_path.glob("*.tmp-*")) == []

    def test_in_memory_checkpoint_resume(self):
        """Engine.resume accepts a live Checkpoint, not only a path."""
        cfg = config()
        trace = walk_trace(seed=2)
        session = Engine(cfg).session(6, 1)
        for t in range(10):
            session.ingest(trace[t])
        resumed = Engine(cfg).resume(session.snapshot())
        assert_outputs_equal(
            session.ingest(trace[10]), resumed.ingest(trace[10])
        )


class TestCustomForecasters:
    def test_custom_model_with_protocol_roundtrips(self, tmp_path):
        class Anchored(Forecaster):
            """Holds the first fitted value plus an updatable offset."""

            def __init__(self):
                super().__init__()
                self._anchor = 0.0

            def _fit(self, series):
                self._anchor = float(series[0])

            def _forecast(self, horizon):
                return np.full(horizon, self._anchor + len(self._history))

            def _state(self):
                return {"anchor": self._anchor}

            def _load_state(self, state):
                self._anchor = float(state["anchor"])

        cfg = config()
        factory = lambda cluster, group: Anchored()  # noqa: E731
        trace = walk_trace(seed=8)
        baseline = Engine(cfg, forecaster_factory=factory).session(6, 1)
        outputs = [baseline.ingest(trace[t]) for t in range(30)]

        interrupted = Engine(cfg, forecaster_factory=factory).session(6, 1)
        for t in range(20):
            interrupted.ingest(trace[t])
        path = interrupted.save(tmp_path / "custom.ckpt")
        resumed = Engine(cfg, forecaster_factory=factory).resume(path)
        for t in range(20, 30):
            assert_outputs_equal(outputs[t], resumed.ingest(trace[t]))

    def test_custom_model_without_protocol_fails_loudly(self):
        class Opaque:
            def fit(self, series):
                return self

            def update(self, value):
                pass

            def forecast(self, horizon):
                return np.zeros(horizon)

        cfg = config()
        session = Engine(
            cfg, forecaster_factory=lambda c, g: Opaque()
        ).session(4, 1)
        trace = walk_trace(steps=14, nodes=4, seed=3)
        for t in range(14):
            session.ingest(trace[t])
        with pytest.raises(CheckpointError, match="get_state"):
            session.snapshot()

    def test_resume_without_custom_factory_rejected(self, tmp_path):
        cfg = config()
        factory = lambda c, g: None  # never called before ingest  # noqa: E731
        session = Engine(cfg, forecaster_factory=factory)
        with pytest.raises(CheckpointError, match="forecaster_factory"):
            plain = Engine(cfg).session(4, 1)
            plain._custom_forecaster_factory = True
            Engine(cfg).resume(plain.snapshot())


class TestScalarForecasterProtocol:
    """Unit round-trips of the documented get_state/set_state protocol."""

    def series(self, length=60, seed=0):
        rng = np.random.default_rng(seed)
        return 0.5 + np.cumsum(rng.normal(0, 0.02, length))

    def roundtrip(self, make):
        series = self.series()
        original = make().fit(series[:50])
        for value in series[50:55]:
            original.update(value)
        clone = make()
        clone.set_state(original.get_state())
        np.testing.assert_array_equal(
            original.forecast(4), clone.forecast(4)
        )
        # The restored model keeps evolving identically.
        original.update(series[55])
        clone.update(series[55])
        np.testing.assert_array_equal(
            original.forecast(4), clone.forecast(4)
        )

    def test_sample_hold(self):
        from repro.forecasting.sample_hold import SampleHoldForecaster

        self.roundtrip(SampleHoldForecaster)

    def test_mean(self):
        self.roundtrip(MeanForecaster)

    def test_ses(self):
        self.roundtrip(SimpleExponentialSmoothing)

    def test_holt(self):
        from repro.forecasting.exponential import HoltLinear

        self.roundtrip(HoltLinear)

    def test_holt_winters(self):
        from repro.forecasting.exponential import HoltWinters

        self.roundtrip(lambda: HoltWinters(period=12))

    def test_yule_walker(self):
        self.roundtrip(lambda: YuleWalkerAR(order=2))

    def test_auto_arima(self):
        from repro.forecasting.arima.grid_search import AutoArima

        self.roundtrip(
            lambda: AutoArima(max_p=1, max_d=1, max_q=0)
        )

    def test_lstm(self):
        from repro.forecasting.lstm.forecaster import LstmForecaster

        self.roundtrip(
            lambda: LstmForecaster(
                hidden_dim=4, lookback=4, epochs=1, seed=0
            )
        )


class TestArtifactFormat:
    def make_checkpoint(self, tmp_path, cut=10):
        cfg = config()
        session = Engine(cfg).session(5, 1)
        trace = walk_trace(steps=cut, nodes=5, seed=5)
        for t in range(cut):
            session.ingest(trace[t])
        return cfg, session, session.save(tmp_path / "artifact.ckpt")

    def test_artifact_is_npz_plus_manifest(self, tmp_path):
        _, _, path = self.make_checkpoint(tmp_path)
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            assert "manifest.json" in names
            assert any(name.endswith(".npy") for name in names)
            manifest = json.loads(archive.read("manifest.json"))
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert manifest["config"]["transmission"]["budget"] == 0.3
        assert manifest["session"]["num_nodes"] == 5

    def test_version_mismatch_rejected(self, tmp_path):
        cfg, session, _ = self.make_checkpoint(tmp_path)
        checkpoint = session.snapshot()
        checkpoint.version = CHECKPOINT_FORMAT_VERSION + 1
        future = checkpoint.save(tmp_path / "future.ckpt")
        with pytest.raises(CheckpointError, match="format version"):
            Checkpoint.load(future)

    def test_config_mismatch_rejected_with_detail(self, tmp_path):
        _, _, path = self.make_checkpoint(tmp_path)
        other = Engine(config(initial=13))
        with pytest.raises(
            CheckpointError, match="initial_collection"
        ) as excinfo:
            other.resume(path)
        assert "12" in str(excinfo.value)
        assert "13" in str(excinfo.value)

    def test_policy_mismatch_rejected(self, tmp_path):
        cfg, _, path = self.make_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="policy"):
            Engine(cfg, policy="uniform").resume(path)

    def test_fleet_shape_mismatch_rejected(self, tmp_path):
        cfg, _, path = self.make_checkpoint(tmp_path)
        engine = Engine(cfg)
        checkpoint = as_checkpoint(path)
        session = engine.session(5, 1)
        checkpoint.session["num_nodes"] = 7
        with pytest.raises(CheckpointError, match="fleet"):
            session.restore(checkpoint)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            Checkpoint.load(garbage)

    def test_zip_without_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("a0.npy", b"")
        with pytest.raises(CheckpointError, match="manifest"):
            Checkpoint.load(path)

    def test_from_checkpoint_builds_matching_engine(self, tmp_path):
        cfg, session, path = self.make_checkpoint(tmp_path)
        checkpoint = as_checkpoint(path)
        engine = Engine.from_config(
            checkpoint.config, policy=checkpoint.session["policy"]
        )
        assert engine.config == cfg
        resumed = engine.resume(checkpoint)
        assert resumed.time == 10
        trace = walk_trace(steps=12, nodes=5, seed=5)
        assert_outputs_equal(
            session.ingest(trace[10]), resumed.ingest(trace[10])
        )

    def test_config_mismatch_helper(self):
        diffs = config_mismatch(
            {"a": {"b": 1, "c": 2}}, {"a": {"b": 1, "c": 3}}
        )
        assert diffs == [("a.c", 2, 3)]
        assert config_mismatch({"a": 1}, {"a": 1}) == []


def zipfile_save(checkpoint, path):
    """Write ``checkpoint`` as ``Checkpoint.save`` did through 4.8.0:
    ``zipfile`` plus ``np.lib.format.write_array``, member by member."""
    arrays = {}
    manifest = {
        "format_version": checkpoint.version,
        "library_version": checkpoint.library_version,
        "config": checkpoint.config,
        "session": _encode(checkpoint.session, arrays, "session"),
        "state": _encode(checkpoint.state, arrays, "state"),
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(
            "manifest.json", json.dumps(manifest, separators=(",", ":"))
        )
        for key, array in arrays.items():
            info = zipfile.ZipInfo(f"{key}.npy")
            info.file_size = array.nbytes
            with archive.open(info, "w") as member:
                np.lib.format.write_array(member, array, allow_pickle=False)
    return path


def zip64_records(data):
    """The zip64 records an archive holds, by kind."""
    found = set()
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for info in archive.infolist():
            (local,) = struct.unpack_from("<H", data, info.header_offset + 28)
            if local:
                found.add(f"local {info.filename}")
            if info.extra:
                (length,) = struct.unpack_from("<H", info.extra, 2)
                if length >= 16:
                    found.add("central sizes")
                if length != 16:
                    found.add("central offset")
    if data[-42:-38] == b"PK\x06\x07":
        found.add("end")
    return found


#: The local time both writers stamp the manifest with.
PINNED_CLOCK = time.struct_time((2026, 10, 19, 13, 37, 59, 0, 292, 0))

#: Arrays whose member sizes the zip64 cases set their limits around:
#: one 1,600-byte member (1,728 with its npy header) after the
#: manifest, then 40 of 32 bytes (160).
ZIP64_STATE = {
    "big": np.arange(200.0),
    "small": [np.arange(4) + i for i in range(40)],
}

#: (ZIP64_LIMIT, ZIP_FILECOUNT_LIMIT, zip64 records written).  No limit
#: falls where zipfile raises instead (a member declared within 5% of
#: the limit but larger than it with its npy header).
ZIP64_CASES = {
    "manifest-and-big-member-local": (300, 65535, {
        "local manifest.json", "local a0.npy", "central sizes",
        "central offset", "end",
    }),
    "big-member-local": (1600, 65535, {
        "local a0.npy", "central sizes", "central offset", "end",
    }),
    "offsets-only": (3000, 65535, {"central offset", "end"}),
    "member-count-only": (zipfile.ZIP64_LIMIT, 3, {"end"}),
}


class TestOnePassWriter:
    """``Checkpoint.save`` writes the archive ``zipfile`` and
    ``write_array`` wrote, byte for byte, with the clock pinned."""

    @pytest.fixture(autouse=True)
    def pinned_clock(self, monkeypatch):
        monkeypatch.setattr(time, "localtime", lambda *args: PINNED_CLOCK)

    @staticmethod
    def saved_both_ways(checkpoint, tmp_path):
        expected = zipfile_save(checkpoint, tmp_path / "zipfile.ckpt")
        written = checkpoint.save(tmp_path / "one-pass.ckpt")
        assert written.read_bytes() == expected.read_bytes()
        return written

    @staticmethod
    def checkpoint_of(state):
        return Checkpoint(config={"c": 1}, session={"n": 1}, state=state)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sessions_of_every_policy(self, policy, tmp_path):
        session = Engine(config(), policy=policy).session(6, 1)
        for row in walk_trace(steps=20, seed=31):
            session.ingest(row)
        self.saved_both_ways(session.snapshot(), tmp_path)

    @pytest.mark.parametrize("model,bank", BANKS)
    def test_sessions_of_every_bank(self, model, bank, tmp_path):
        cfg = config(model=model)
        session = Engine(cfg, **bank_kwargs(cfg, bank)).session(6, 1)
        for row in walk_trace(steps=30, seed=37):
            session.ingest(row)
        self.saved_both_ways(session.snapshot(), tmp_path)

    def test_every_plain_dtype(self, tmp_path):
        state = {
            str(i): (np.arange(6) % 3).astype(dtype).reshape(2, 3)
            for i, dtype in enumerate(_NPY_DTYPES.values())
        }
        path = self.saved_both_ways(self.checkpoint_of(state), tmp_path)
        for mmap in (False, True):
            assert state_equal(Checkpoint.load(path, mmap=mmap).state, state)

    def test_array_layouts(self, tmp_path):
        grid = np.arange(24.0).reshape(4, 6)
        state = {
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3)),
            "empty-fortran": np.zeros((3, 0), order="F"),
            "fortran": np.asfortranarray(grid),
            "strided": grid[::2, 1::2],
            "reversed": grid[::-1],
            "big-endian": grid.astype(">i4"),
            "read-only": np.frombuffer(grid.tobytes(), dtype=np.float64),
            # Dtypes only np.load reads back.
            "text": np.array(["ab", "c"]),
            "dates": np.array(["2020-01-01"], dtype="M8[D]"),
            "records": np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")]),
        }
        path = self.saved_both_ways(self.checkpoint_of(state), tmp_path)
        for mmap in (False, True):
            assert state_equal(Checkpoint.load(path, mmap=mmap).state, state)

    def test_a_header_too_long_for_npy_version_1_raises(self, tmp_path):
        # zipfile and write_array would write it in npy format 2.0, but
        # no load reads a header over 10,000 bytes without allow_pickle.
        wide = np.dtype([(f"field{i}", "u1") for i in range(5000)])
        with pytest.raises(ValueError, match="too big for version=.1, 0."):
            self.checkpoint_of({"wide": np.zeros(2, dtype=wide)}).save(
                tmp_path / "wide.ckpt"
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(ZIP64_CASES))
    def test_zip64_records(self, case, tmp_path, monkeypatch):
        limit, count_limit, records = ZIP64_CASES[case]
        for module, prefix in ((zipfile, ""), (checkpoint_module, "_")):
            monkeypatch.setattr(module, f"{prefix}ZIP64_LIMIT", limit)
            monkeypatch.setattr(
                module, f"{prefix}ZIP_FILECOUNT_LIMIT", count_limit
            )
        path = self.saved_both_ways(self.checkpoint_of(ZIP64_STATE), tmp_path)
        data = path.read_bytes()
        assert zip64_records(data) == records
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["a0"], ZIP64_STATE["big"])
        for mmap in (False, True):
            loaded = Checkpoint.load(path, mmap=mmap).state
            assert state_equal(loaded, ZIP64_STATE)

    def test_one_member_a_call_and_short_writes(self, tmp_path, monkeypatch):
        # Every call writes at most 100 bytes, of its first buffer.
        writev = os.writev
        calls = []

        def short_writev(fd, buffers):
            calls.append(len(buffers))
            head = bytes(memoryview(buffers[0]).cast("B")[:100])
            return writev(fd, [head])

        monkeypatch.setattr(os, "writev", short_writev)
        self.saved_both_ways(self.checkpoint_of(ZIP64_STATE), tmp_path)
        assert max(calls) == 2  # a local header (and npy header), data

    def test_a_failed_write_keeps_the_previous_archive(
        self, tmp_path, monkeypatch
    ):
        path = self.checkpoint_of({"a": np.arange(3.0)}).save(
            tmp_path / "kept.ckpt"
        )
        kept = path.read_bytes()

        def full_disk(fd, buffers):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "writev", full_disk)
        with pytest.raises(OSError, match="No space left"):
            self.checkpoint_of(ZIP64_STATE).save(path)
        assert path.read_bytes() == kept
        assert list(tmp_path.iterdir()) == [path]

    def test_object_arrays_raise_as_write_array_does(self, tmp_path):
        array = np.array([None, 1], dtype=object)
        with pytest.raises(ValueError) as expected:
            np.lib.format.write_array(io.BytesIO(), array, allow_pickle=False)
        path = tmp_path / "objects.ckpt"
        with pytest.raises(ValueError) as raised:
            self.checkpoint_of({"a": array}).save(path)
        assert str(raised.value) == str(expected.value)
        assert list(tmp_path.iterdir()) == []


class TestMmapResume:
    """Zero-copy resume: array members map copy-on-write and are
    adopted as the session's live columns instead of being copied."""

    def make_checkpoint(self, tmp_path, cut=12, policy="adaptive"):
        cfg = config()
        session = Engine(cfg, policy=policy).session(6, 1)
        trace = walk_trace(steps=36, seed=21)
        for t in range(cut):
            session.ingest(trace[t])
        return cfg, trace, session.save(tmp_path / f"{policy}.ckpt")

    def test_array_members_are_stored_uncompressed(self, tmp_path):
        # mmap needs byte-addressable members: arrays are ZIP_STORED,
        # only the manifest stays deflated.
        _, _, path = self.make_checkpoint(tmp_path)
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if info.filename.endswith(".npy"):
                    assert info.compress_type == zipfile.ZIP_STORED
                else:
                    assert info.compress_type == zipfile.ZIP_DEFLATED

    def test_claim_adoption_is_one_shot_and_mmap_only(self, tmp_path):
        _, _, path = self.make_checkpoint(tmp_path)
        mapped = Checkpoint.load(path, mmap=True)
        assert mapped.claim_adoption()
        assert not mapped.claim_adoption()  # second claimant copies
        plain = Checkpoint.load(path)
        assert not plain.claim_adoption()

    def test_snapshot_is_never_adoptable(self, tmp_path):
        cfg = config()
        session = Engine(cfg).session(4, 1)
        session.ingest(walk_trace(steps=1, nodes=4)[0])
        # Adopting a snapshot would alias the live session's columns.
        assert not session.snapshot().claim_adoption()

    def test_resume_adopts_mapped_columns(self, tmp_path):
        cfg, _, path = self.make_checkpoint(tmp_path)
        resumed = Engine(cfg).resume(path)  # mmap=True is the default
        assert isinstance(resumed.fleet.stored, np.memmap)
        copied = Engine(cfg).resume(path, mmap=False)
        assert not isinstance(copied.fleet.stored, np.memmap)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mmap_continuation_matches_in_memory(self, tmp_path, policy):
        cfg, trace, path = self.make_checkpoint(tmp_path, policy=policy)
        mapped = Engine(cfg, policy=policy).resume(path, mmap=True)
        copied = Engine(cfg, policy=policy).resume(path, mmap=False)
        for t in range(12, 36):
            assert_outputs_equal(
                mapped.ingest(trace[t]), copied.ingest(trace[t])
            )
        np.testing.assert_array_equal(
            mapped.fleet.policy_state, copied.fleet.policy_state
        )
        assert (
            mapped.transport_stats.messages
            == copied.transport_stats.messages
        )

    def test_mapped_columns_are_copy_on_write(self, tmp_path):
        # Ingesting into an adopted session must never write through to
        # the checkpoint file on disk.
        cfg, trace, path = self.make_checkpoint(tmp_path)
        before = path.read_bytes()
        resumed = Engine(cfg).resume(path)
        for t in range(12, 36):
            resumed.ingest(trace[t])
        assert path.read_bytes() == before

    def test_legacy_deflated_archive_falls_back(self, tmp_path):
        # Checkpoints written before the ZIP_STORED layout deflate every
        # member; mmap=True silently degrades to an in-memory load.
        cfg, trace, path = self.make_checkpoint(tmp_path)
        legacy = tmp_path / "legacy.ckpt"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(
            legacy, "w", zipfile.ZIP_DEFLATED
        ) as dst:
            for name in src.namelist():
                dst.writestr(name, src.read(name))
        resumed = Engine(cfg).resume(legacy, mmap=True)
        assert not isinstance(resumed.fleet.stored, np.memmap)
        reference = Engine(cfg).resume(path, mmap=False)
        for t in range(12, 36):
            assert_outputs_equal(
                resumed.ingest(trace[t]), reference.ingest(trace[t])
            )

    def test_members_are_views_of_one_map(self, tmp_path):
        _, _, path = self.make_checkpoint(tmp_path)
        state = Checkpoint.load(path, mmap=True).state
        fleet = state["fleet"]
        assert isinstance(fleet["times"], np.memmap)
        assert fleet["times"]._mmap is not None
        assert fleet["stored"]._mmap is fleet["times"]._mmap

    def test_fortran_members_are_mapped_in_fortran_order(self, tmp_path):
        cfg = config(model="ar")
        session = Engine(cfg).session(6, 1)
        for row in walk_trace(steps=20, seed=3):
            session.ingest(row)
        path = session.save(tmp_path / "ar.ckpt")
        mapped = Checkpoint.load(path, mmap=True).state["pipeline"]
        copied = Checkpoint.load(path).state["pipeline"]
        coefficients = mapped["banks"][0]["coefficients"]
        expected = copied["banks"][0]["coefficients"]
        assert isinstance(coefficients, np.memmap)
        assert coefficients.flags.f_contiguous
        assert not coefficients.flags.c_contiguous
        assert expected.flags.f_contiguous
        np.testing.assert_array_equal(coefficients, expected)

    def test_archive_reads_through_np_load(self, tmp_path):
        _, _, path = self.make_checkpoint(tmp_path)
        with zipfile.ZipFile(path) as archive:
            raw = archive.read("manifest.json")
        manifest = json.loads(raw)
        assert raw == json.dumps(manifest, separators=(",", ":")).encode()
        mapped = Checkpoint.load(path, mmap=True).state["fleet"]
        with np.load(path) as archive:
            key = manifest["state"]["fleet"]["stored"]["__array__"]
            np.testing.assert_array_equal(archive[key], mapped["stored"])


class ArchiveLayout:
    """Byte offsets of a checkpoint archive's zip structures."""

    def __init__(self, data):
        self.size = len(data)
        self.eocd = data.rindex(b"PK\x05\x06")
        cd_size, self.central_directory = struct.unpack_from(
            "<2L", data, self.eocd + 12
        )
        #: member name -> offset of its central-directory entry
        self.central = {}
        at = self.central_directory
        while at < self.central_directory + cd_size:
            lengths = struct.unpack_from("<3H", data, at + 28)
            self.central[data[at + 46 : at + 46 + lengths[0]].decode()] = at
            at += 46 + sum(lengths)
        #: member name -> (local header offset, data offset, data size)
        self.members = {}
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            for info in archive.infolist():
                local = info.header_offset
                lengths = struct.unpack_from("<2H", data, local + 26)
                start = local + 30 + sum(lengths)
                self.members[info.filename] = (
                    local, start, info.compress_size
                )
        self.largest = max(
            (name for name in self.members if name.endswith(".npy")),
            key=lambda name: self.members[name][2],
        )
        start = self.members[self.largest][1]
        header = 10 + int.from_bytes(data[start + 8 : start + 10], "little")
        #: offset of the largest member's first array byte
        self.array_start = start + header


MANIFEST = "manifest.json"

#: Single-bit flips, as (byte offset, bit) from the archive's layout.
#: Every one must make each load path raise CheckpointError.
FLIPS = {
    "manifest-payload-first": lambda z: (z.members[MANIFEST][1], 1),
    "manifest-payload-quarter": lambda z: (
        z.members[MANIFEST][1] + z.members[MANIFEST][2] // 4, 6
    ),
    "manifest-payload-middle": lambda z: (
        z.members[MANIFEST][1] + z.members[MANIFEST][2] // 2, 3
    ),
    "manifest-local-name": lambda z: (z.members[MANIFEST][0] + 30, 0),
    "member-local-name": lambda z: (z.members[z.largest][0] + 30, 0),
    "member-npy-magic": lambda z: (z.members[z.largest][1] + 1, 0),
    "member-npy-header": lambda z: (z.members[z.largest][1] + 12, 1),
    "member-npy-header-length": lambda z: (z.members[z.largest][1] + 8, 4),
    "member-payload-first": lambda z: (z.array_start, 0),
    "member-payload-last": lambda z: (
        z.members[z.largest][1] + z.members[z.largest][2] - 1, 7
    ),
    "manifest-central-crc": lambda z: (z.central[MANIFEST] + 16, 5),
    "member-central-crc": lambda z: (z.central[z.largest] + 16, 0),
    "manifest-central-offset": lambda z: (z.central[MANIFEST] + 42, 2),
    "member-central-offset-low": lambda z: (z.central[z.largest] + 42, 0),
    "member-central-offset-high": lambda z: (z.central[z.largest] + 45, 7),
    # General-purpose flag bits 0 (encrypted) and 6 (strong encryption).
    "member-central-flag-encrypted": lambda z: (z.central[z.largest] + 8, 0),
    "member-central-flag-strong-encryption": lambda z: (
        z.central[z.largest] + 8, 6
    ),
}

#: Flips no loader notices: the end record's two entry counts (zipfile
#: walks the central directory by its size), and the deflate stream's
#: final-block bit and its padding after the last code (the manifest's
#: one block inflates the same either way).
UNREAD_FLIPS = {
    "end-record-disk-entries": lambda z: (z.eocd + 8, 0),
    "end-record-total-entries": lambda z: (z.eocd + 10, 0),
    "manifest-final-block-bit": lambda z: (z.members[MANIFEST][1], 0),
    "manifest-padding-bit": lambda z: (
        z.members[MANIFEST][1] + z.members[MANIFEST][2] - 1, 7
    ),
}


def npy_bytes(array, **fields):
    """``array``'s bytes behind an npy header with ``fields`` changed."""
    header = np.lib.format.header_data_from_array_1_0(array)
    header.update(fields)
    stream = io.BytesIO()
    np.lib.format.write_array_header_1_0(stream, header)
    return stream.getvalue() + array.tobytes()


def npy_text(array, text):
    """``array``'s bytes behind an npy 1.0 header reading ``text``."""
    body = text.encode("latin1") + b"\n"
    return (
        b"\x93NUMPY\x01\x00" + struct.pack("<H", len(body)) + body
        + array.tobytes()
    )


#: Member bytes no loader may turn into an array: headers that overstate
#: the payload, a subarray dtype that does not fit it, a header numpy's
#: tokenizer fails on (an unterminated string), a dimension with a
#: leading zero, a fourth key, and a 1.0 header relabelled 3.0 (numpy
#: then reads a four-byte header length that runs past the member).
MALFORMED_MEMBERS = {
    "one-more-element": lambda a: npy_bytes(a, shape=(a.size + 1,)),
    "negative-dimension": lambda a: npy_bytes(a, shape=(-a.size,)),
    "subarray-dtype": lambda a: npy_bytes(
        a, descr=(a.dtype.str, (2,)), shape=(a.size // 2,)
    ),
    "unterminated-header": lambda a: (
        b"\x93NUMPY\x01\x00\x04\x00'''\n" + a.tobytes()
    ),
    "leading-zero-dimension": lambda a: npy_text(
        a,
        f"{{'descr': '{a.dtype.str}', 'fortran_order': False, "
        f"'shape': (0{a.size},), }}",
    ),
    "extra-key": lambda a: npy_bytes(a, extra=0),
    "version-3.0": lambda a: b"\x93NUMPY\x03\x00" + npy_bytes(a)[8:],
}

#: Truncation points, as a byte count kept from the archive's layout.
TRUNCATIONS = {
    "empty": lambda z: 0,
    "one-byte": lambda z: 1,
    "local-header": lambda z: 30,
    "mid-member": lambda z: z.array_start + 1,
    "half": lambda z: z.size // 2,
    "central-directory": lambda z: z.central_directory,
    "mid-central-directory": lambda z: z.central_directory + 10,
    "end-record": lambda z: z.eocd,
    "last-byte": lambda z: z.size - 1,
}


class TestCorruptArchives:
    """A damaged archive never resumes: every load path raises
    CheckpointError, whichever structure the damage hits."""

    @pytest.fixture(scope="class")
    def intact(self, tmp_path_factory):
        cfg = config(model="ar")
        trace = walk_trace(steps=30, nodes=12, seed=17)
        session = Engine(cfg).session(12, 1)
        for row in trace[:20]:
            session.ingest(row)
        path = session.save(tmp_path_factory.mktemp("intact") / "a.ckpt")
        data = path.read_bytes()
        return cfg, trace, data, ArchiveLayout(data)

    def assert_every_load_raises(self, cfg, path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(path, mmap=True)
        with pytest.raises(CheckpointError):
            Checkpoint.load(path, mmap=False)
        with pytest.raises(CheckpointError):
            Engine(cfg).resume(path)

    @pytest.mark.parametrize("case", sorted(FLIPS))
    def test_bit_flip_raises(self, intact, tmp_path, case):
        cfg, _, data, layout = intact
        offset, bit = FLIPS[case](layout)
        damaged = bytearray(data)
        damaged[offset] ^= 1 << bit
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damaged)
        self.assert_every_load_raises(cfg, path)

    @pytest.mark.parametrize("case", sorted(TRUNCATIONS))
    def test_truncation_raises(self, intact, tmp_path, case):
        cfg, _, data, layout = intact
        path = tmp_path / "truncated.ckpt"
        path.write_bytes(data[: TRUNCATIONS[case](layout)])
        self.assert_every_load_raises(cfg, path)

    @staticmethod
    def write_malformed(data, layout, case, path):
        """``data`` with its largest member replaced by a malformed one;
        zipfile computes every CRC-32 of the rewritten archive, so only
        the npy checks can catch these."""
        with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(
            path, "w"
        ) as dst:
            for info in src.infolist():
                payload = src.read(info)
                if info.filename == layout.largest:
                    array = np.load(io.BytesIO(payload))
                    payload = MALFORMED_MEMBERS[case](array)
                dst.writestr(info, payload)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MEMBERS))
    def test_malformed_npy_member_in_a_valid_zip_raises(
        self, intact, tmp_path, case
    ):
        cfg, _, data, layout = intact
        path = tmp_path / "malformed.ckpt"
        self.write_malformed(data, layout, case, path)
        self.assert_every_load_raises(cfg, path)

    @needs_proc
    def test_the_damaged_archive_matrix_leaks_no_descriptor(
        self, intact, tmp_path
    ):
        cfg, _, data, layout = intact
        for case, flip in FLIPS.items():
            offset, bit = flip(layout)
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            path = tmp_path / f"flip-{case}.ckpt"
            path.write_bytes(damaged)
            self.assert_every_load_raises(cfg, path)
        for case, cut in TRUNCATIONS.items():
            path = tmp_path / f"truncated-{case}.ckpt"
            path.write_bytes(data[: cut(layout)])
            self.assert_every_load_raises(cfg, path)
        for case in MALFORMED_MEMBERS:
            path = tmp_path / f"malformed-{case}.ckpt"
            self.write_malformed(data, layout, case, path)
            self.assert_every_load_raises(cfg, path)
        gc.collect()
        assert eventually(lambda: not open_files(tmp_path)), (
            open_files(tmp_path)
        )

    @pytest.mark.parametrize("case", sorted(UNREAD_FLIPS))
    def test_flip_in_an_unread_field_resumes_the_intact_state(
        self, intact, tmp_path, case
    ):
        # An archive damaged where no loader reads may load; it must
        # then continue exactly like the intact one.
        cfg, trace, data, layout = intact
        offset, bit = UNREAD_FLIPS[case](layout)
        damaged = bytearray(data)
        damaged[offset] ^= 1 << bit
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damaged)
        reference_path = tmp_path / "intact.ckpt"
        reference_path.write_bytes(data)
        for mmap in (True, False):
            try:
                resumed = Engine(cfg).resume(path, mmap=mmap)
            except CheckpointError:
                continue
            reference = Engine(cfg).resume(reference_path, mmap=mmap)
            for t in range(20, 30):
                assert_outputs_equal(
                    reference.ingest(trace[t]), resumed.ingest(trace[t])
                )


#: Every dtype the strict npy header parser reads, in both byte orders.
PLAIN_DTYPES = [
    np.dtype(kind).newbyteorder(order)
    for kind in (
        np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8,
        np.uint16, np.uint32, np.uint64, np.float16, np.float32,
        np.float64, np.complex64, np.complex128,
    )
    for order in "<>"
]


@st.composite
def plain_headers(draw):
    """An npy 1.0 or 2.0 header as numpy's writer emits it."""
    header = {
        "descr": np.lib.format.dtype_to_descr(
            draw(st.sampled_from(PLAIN_DTYPES))
        ),
        "fortran_order": draw(st.booleans()),
        "shape": tuple(
            draw(st.lists(st.integers(0, 2**40), max_size=4))
        ),
    }
    stream = io.BytesIO()
    if draw(st.booleans()):
        np.lib.format.write_array_header_1_0(stream, header)
    else:
        np.lib.format.write_array_header_2_0(stream, header)
    return stream.getvalue()


def numpy_header(data):
    """numpy's ``(shape, fortran_order, dtype, data offset)`` for the
    npy header at the start of ``data``, or None where it rejects it."""
    stream = io.BytesIO(data)
    try:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            header = np.lib.format.read_array_header_1_0(stream)
        elif version == (2, 0):
            header = np.lib.format.read_array_header_2_0(stream)
        else:
            return None
    except (ValueError, SyntaxError, tokenize.TokenError):
        return None
    return (*header, stream.tell())


#: Bytes an edit inserts or writes: the header's own alphabet, mostly.
EDIT_BYTES = st.one_of(
    st.sampled_from(b"0123456789 ,()'{}:<>|TF\n-L"), st.integers(0, 255)
)


class TestNpyHeaderParser:
    """Checkpoint loads parse plain npy headers without numpy's parser:
    whatever the strict parser accepts, numpy reads the same way."""

    @given(data=plain_headers())
    @settings(max_examples=300, deadline=None)
    def test_plain_headers_parse_as_numpy_parses_them(self, data):
        # dtype equality includes the byte order.
        assert _npy_header(data, 0, len(data)) == numpy_header(data)

    @given(
        data=plain_headers(),
        edit=st.sampled_from(("delete", "insert", "replace")),
        where=st.integers(0, 2**16),
        byte=EDIT_BYTES,
    )
    @settings(max_examples=600, deadline=None)
    def test_a_one_byte_edit_parses_as_numpy_or_not_at_all(
        self, data, edit, where, byte
    ):
        at = where % len(data)
        if edit == "delete":
            edited = data[:at] + data[at + 1 :]
        elif edit == "insert":
            edited = data[:at] + bytes([byte]) + data[at:]
        else:
            edited = data[:at] + bytes([byte]) + data[at + 1 :]
        parsed = _npy_header(edited, 0, len(edited))
        if parsed is not None:
            assert parsed == numpy_header(edited)

    def test_a_string_member_loads_as_np_load_loads_it(self, tmp_path):
        names = np.array(["abc", "de", "f"])
        assert names.dtype.str == "<U3"
        path = Checkpoint(
            config=config().to_dict(), session={}, state={"names": names}
        ).save(tmp_path / "names.ckpt")
        with zipfile.ZipFile(path) as archive:
            expected = np.load(io.BytesIO(archive.read("a0.npy")))
        for mmap in (True, False):
            loaded = Checkpoint.load(path, mmap=mmap).state["names"]
            assert state_equal(loaded, expected)

    def test_loads_never_call_ast(self, tmp_path, monkeypatch):
        # numpy's own npy header parser calls ast.literal_eval; no load
        # of an archive this library writes, or of a golden format-1
        # archive, may reach it.
        session = Engine(config(model="ar")).session(6, 1)
        for row in walk_trace(steps=20, seed=9):
            session.ingest(row)
        paths = [session.save(tmp_path / "ar.ckpt")]
        paths += sorted(FORMAT1.glob("*.ckpt"))
        assert len(paths) == 7
        # A linked archive resumes only into a session with a link.
        resumable = [path for path in paths if path.stem != "lossy_churn"]

        def resume(path):
            checkpoint = Checkpoint.load(path)
            engine = Engine.from_config(
                checkpoint.config, policy=checkpoint.session["policy"]
            )
            return engine.resume(path).snapshot().state

        loads = {
            (path, mmap): Checkpoint.load(path, mmap=mmap).state
            for path in paths for mmap in (True, False)
        }
        resumes = {path: resume(path) for path in resumable}

        def no_ast(*args, **kwargs):
            raise AssertionError("ast.literal_eval was called")

        monkeypatch.setattr(ast, "literal_eval", no_ast)
        for (path, mmap), expected in loads.items():
            loaded = Checkpoint.load(path, mmap=mmap).state
            assert state_equal(loaded, expected), (path, mmap)
        for path in resumable:
            assert state_equal(resume(path), resumes[path]), path


KILL_SCRIPT = r"""
import os
import shutil
import signal
import sys

import numpy as np

from repro.api import Engine

path, config_path, trace_path, cut = sys.argv[1:5]
cut = int(cut)
trace = np.load(trace_path)
session = Engine.from_config(config_path).session(trace.shape[1], 1)
for row in trace[:cut]:
    session.ingest(row)
session.save(path)
shutil.copyfile(path, path + ".good")
for row in trace[cut : cut + 4]:
    session.ingest(row)

writev = os.writev


def write_then_die(fd, buffers):
    # The save's first member reaches its temp file; no other does.
    writev(fd, buffers)
    os.kill(os.getpid(), signal.SIGKILL)


os.writev = write_then_die
session.save(path)
sys.exit("the save survived its kill point")
"""


class TestKilledSave:
    def test_kill_mid_save_keeps_the_previous_archive(self, tmp_path):
        """A process killed while streaming members into a save leaves
        the archive already at that path intact and resumable, and the
        next save to that path succeeds."""
        cfg = config(model="ar")
        trace = walk_trace(steps=40, nodes=6, seed=29)
        cut = 16
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.to_dict()))
        trace_path = tmp_path / "trace.npy"
        np.save(trace_path, trace)
        path = tmp_path / "session.ckpt"
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [
                sys.executable, "-c", KILL_SCRIPT, str(path),
                str(config_path), str(trace_path), str(cut),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        # The kill landed inside the second save: its scratch file is
        # left behind, the target still holds the first archive.
        assert len(list(tmp_path.glob("session.ckpt.tmp-*"))) == 1
        good = tmp_path / "session.ckpt.good"
        assert path.read_bytes() == good.read_bytes()

        baseline = Engine(cfg).session(6, 1)
        outputs = [baseline.ingest(row) for row in trace]
        resumed = Engine(cfg).resume(path)
        assert resumed.time == cut
        for t in range(cut, cut + 8):
            assert_outputs_equal(outputs[t], resumed.ingest(trace[t]))
        # A temp file of a save still running elsewhere (a live pid)
        # survives; the killed child's is removed by the next save.
        live = tmp_path / f"session.ckpt.tmp-{os.getppid()}"
        live.write_bytes(b"in progress")
        resumed.save(path)
        assert list(tmp_path.glob("session.ckpt.tmp-*")) == [live]
        assert live.read_bytes() == b"in progress"
        again = Engine(cfg).resume(path)
        assert again.time == cut + 8
        for t in range(cut + 8, 40):
            assert_outputs_equal(outputs[t], again.ingest(trace[t]))


class TestStaleScratchSearch:
    def test_searches_once_per_path_and_again_after_a_failed_save(
        self, tmp_path, monkeypatch
    ):
        """The directory is listed for dead writers' temp files at the
        first save to a path, and again only after a save to it raised."""
        session = Engine(config()).session(4, 1)
        session.ingest(walk_trace(steps=1, nodes=4)[0])
        checkpoint = session.snapshot()
        path = tmp_path / "session.ckpt"
        scandir = os.scandir
        listed = []

        def counted(directory="."):
            listed.append(Path(directory))
            return scandir(directory)

        def write_fails(fd, members):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "scandir", counted)
        for _ in range(3):
            checkpoint.save(path)
        assert listed == [tmp_path]
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "_write_all", write_fails)
            with pytest.raises(OSError):
                checkpoint.save(path)
        assert listed == [tmp_path]
        checkpoint.save(path)
        assert listed == [tmp_path, tmp_path]
        assert list(tmp_path.glob("session.ckpt.tmp-*")) == []
        assert Engine(config()).resume(path).time == 1


@needs_proc
class TestReleaseThread:
    """Replaced archives are freed on the release thread, never in the
    caller that saves over them or drops a session mapping them."""

    @staticmethod
    def probe(slots=14):
        cfg = config()
        session = Engine(cfg).session(6, 1)
        for row in walk_trace(steps=slots, seed=5):
            session.ingest(row)
        return cfg, session

    def test_replaced_archives_close_on_the_release_thread(
        self, tmp_path, monkeypatch
    ):
        closes = []
        close = os.close

        def recording_close(fd):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                target = ""
            closes.append((threading.current_thread(), target))
            close(fd)

        monkeypatch.setattr(os, "close", recording_close)
        cfg, session = self.probe()
        path = tmp_path / "cycle.ckpt"
        for _ in range(20):
            session.save(path)
            # Rebinding drops the previous resumed session, whose
            # columns map the archive this save just replaced.
            resumed = Engine(cfg).resume(path)
        del resumed
        gc.collect()
        assert eventually(lambda: not deleted_files(tmp_path)), (
            deleted_files(tmp_path)
        )
        prefix = f"{os.path.realpath(tmp_path)}/"
        released = [
            thread for thread, target in closes
            if target.startswith(prefix) and target.endswith(" (deleted)")
        ]
        # Two per replaced archive: the descriptor the save held over
        # the rename, and the one held while a session mapped it.
        assert len(released) == 2 * 19
        main = threading.main_thread()
        assert all(t is not main and t.daemon for t in released)

    def test_a_blocked_release_thread_holds_at_most_the_cap(
        self, tmp_path, monkeypatch
    ):
        unblock = threading.Event()
        inline = []
        close = os.close

        def blocking_close(fd):
            if threading.current_thread() is threading.main_thread():
                inline.append(fd)
            else:
                unblock.wait(60)
            close(fd)

        monkeypatch.setattr(os, "close", blocking_close)
        _, session = self.probe()
        path = tmp_path / "blocked.ckpt"
        try:
            for _ in range(100):
                session.save(path)
            pending = len(deleted_files(tmp_path))
        finally:
            unblock.set()
        # The queue's cap, plus the one the blocked thread holds; the
        # rest of the 99 replaced archives closed inline.
        assert pending <= _RELEASE_CAP + 1
        assert len(inline) >= 99 - (_RELEASE_CAP + 1)
        assert eventually(lambda: not deleted_files(tmp_path)), (
            deleted_files(tmp_path)
        )

    def test_concurrent_savers_lose_no_descriptor(self, tmp_path):
        # More savers than cores, switching threads as often as the
        # interpreter allows: every replaced archive is still closed.
        cfg, session = self.probe()
        expected = session.snapshot().state
        done = []

        def cycles(index):
            path = tmp_path / f"saver-{index}.ckpt"
            for _ in range(10):
                session.save(path)
                resumed = Engine(cfg).resume(path)
                assert state_equal(resumed.snapshot().state, expected)
            done.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            savers = [
                threading.Thread(target=cycles, args=(i,)) for i in range(4)
            ]
            for saver in savers:
                saver.start()
            for saver in savers:
                saver.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(saver.is_alive() for saver in savers)
        assert sorted(done) == [0, 1, 2, 3]
        gc.collect()
        assert eventually(lambda: not deleted_files(tmp_path)), (
            deleted_files(tmp_path)
        )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_saves_and_resumes(self, tmp_path):
        cfg, session = self.probe()
        path = tmp_path / "fork.ckpt"
        session.save(path)
        resumed = Engine(cfg).resume(path)
        session.save(path)  # the parent's release thread is running
        del resumed
        gc.collect()
        assert eventually(lambda: not deleted_files(tmp_path))
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process with threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for _ in range(5):
                    session.save(path)
                    resumed = Engine(cfg).resume(path)
                del resumed
                gc.collect()
                code = 0 if eventually(
                    lambda: not deleted_files(tmp_path)
                ) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not exit")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_an_mmap_finalizer_runs_after_the_unmap(self, tmp_path):
        # Checkpoint.load relies on this order: the descriptor it hands
        # to the release thread must outlive the mapping.
        path = tmp_path / "mapped.bin"
        path.write_bytes(bytes(1 << 16))
        with open(path, "rb") as handle:
            mapping = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_COPY
            )
        name = os.path.realpath(path)

        def mapped():
            with open("/proc/self/maps", encoding="utf-8") as maps:
                return name in maps.read()

        seen = []
        weakref.finalize(mapping, lambda: seen.append(mapped()))
        assert mapped()
        del mapping
        assert seen == [False]


def array_bytes(state):
    if isinstance(state, np.ndarray):
        return state.nbytes
    if isinstance(state, dict):
        return sum(array_bytes(v) for v in state.values())
    if isinstance(state, (list, tuple)):
        return sum(array_bytes(v) for v in state)
    return 0


class TestBoundedState:
    def test_soak_state_grows_only_by_the_centroid_series(self):
        """Over 5,000 slots with churn, the only session state that
        grows at a fixed fleet size is the centroid series: groups·K·d
        floats per slot.  Tracker labels stay within the M-slot
        window.  The heap grows by at most four times that between
        slots 1,000 and 5,000: the series' doubling buffer, not one
        array object per slot."""
        nodes, clusters, depth, every = 16, 3, 2, 500
        cfg = PipelineConfig(
            transmission=TransmissionConfig(budget=0.3),
            clustering=ClusteringConfig(
                num_clusters=clusters,
                history_depth=depth,
                kmeans_restarts=1,
                warm_start=True,
                seed=0,
            ),
            forecasting=ForecastingConfig(
                model="sample_hold",
                max_horizon=2,
                initial_collection=50,
                retrain_interval=250,
            ),
        )
        rng = np.random.default_rng(0)
        steps = 10 * every
        phase = rng.uniform(0, 2 * np.pi, nodes + 2)
        slots = np.arange(steps)[:, np.newaxis]
        trace = np.clip(
            0.5 + 0.3 * np.sin(2 * np.pi * slots / 288 + phase)
            + rng.normal(0, 0.02, (steps, nodes + 2)),
            0, 1,
        )
        session = Engine(cfg).session(nodes, 1)
        sizes = []
        heap = {}
        tracemalloc.start()
        try:
            for t in range(steps):
                if t % every == every // 2:
                    session.grow(2)
                if t % every == every // 2 + 10:
                    session.compact(np.delete(np.arange(nodes + 2), [1, 7]))
                session.ingest(trace[t, : session.num_nodes])
                if (t + 1) % every == 0:
                    state = session.snapshot().state
                    for tracker in state["pipeline"]["trackers"]:
                        assert tracker["labels"].shape == (depth, nodes)
                    sizes.append(array_bytes(state))
                    del state
                if t + 1 in (1000, steps):
                    gc.collect()
                    heap[t + 1] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_slot = clusters * 1 * 8  # groups · K · d · float64
        assert np.diff(sizes).tolist() == [every * per_slot] * 9
        growth = (heap[steps] - heap[1000]) / (steps - 1000)
        assert growth <= 4 * per_slot, f"heap grew {growth:.1f} B per slot"


#: Resume points one slot before, at and after the first two doublings
#: of a centroid series' buffer.
CAPACITY_CUTS = tuple(
    SlotSeries.INITIAL_CAPACITY * scale + step
    for scale in (1, 2) for step in (-1, 0, 1)
)


class TestSeriesCapacityBoundaries:
    @pytest.mark.parametrize("model", ["sample_hold", "mean"])
    @pytest.mark.parametrize("cut", CAPACITY_CUTS)
    def test_resume_is_bit_identical(self, cut, model, tmp_path):
        """A session saved next to a doubling of the centroid series
        (and, for ``mean``, of the bank's rows) resumes bit for bit."""
        cfg = config(model=model, initial=8)
        trace = walk_trace(steps=cut + 40, nodes=6, seed=cut)
        baseline = Engine(cfg).session(6, 1)
        outputs = [baseline.ingest(row) for row in trace]
        interrupted = Engine(cfg).session(6, 1)
        for row in trace[:cut]:
            interrupted.ingest(row)
        path = interrupted.save(tmp_path / "session.ckpt")
        resumed = Engine(cfg).resume(path)
        for tracker in resumed.snapshot().state["pipeline"]["trackers"]:
            assert len(tracker["centroids"]) == cut
        for t in range(cut, len(trace)):
            assert_outputs_equal(outputs[t], resumed.ingest(trace[t]))
        ours = resumed.snapshot().state
        theirs = baseline.snapshot().state
        assert state_equal(ours, theirs)
        for a, b in zip(
            ours["pipeline"]["trackers"], theirs["pipeline"]["trackers"]
        ):
            assert a["labels"].tobytes() == b["labels"].tobytes()
            assert a["centroids"].tobytes() == b["centroids"].tobytes()


def factored_config(dtype="float64", scalar=True, clusters=3, initial=8):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(
            num_clusters=clusters,
            scalar_per_resource=scalar,
            kmeans_restarts=1,
            seed=0,
        ),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=3,
            initial_collection=initial,
            retrain_interval=8,
            membership_lookback=3,
        ),
        dtype=dtype,
    )


def walk_2d(steps=20, nodes=30, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.04, (steps, nodes, 2)), axis=0), 0, 1
    )


class ClusterOneFails(SampleHoldForecaster):
    def _forecast(self, horizon):
        raise DataError("cluster down")


def cluster_one_fails(cluster, group):
    return ClusterOneFails() if cluster == 1 else SampleHoldForecaster()


def assert_forecasts_identical(a, b):
    assert sorted(a) == sorted(b)
    for h in a:
        assert a[h].dtype == b[h].dtype
        assert a[h].shape == b[h].shape
        assert a[h].tobytes() == b[h].tobytes()


class TestFactoredForecasts:
    """Checkpoints store the latest forecasts as the factors of Eq. 12
    (per-cluster forecasts, memberships, offsets); a resumed session
    composes them at its first forecast() call."""

    @pytest.mark.parametrize("failure", ["none", "cluster", "group"])
    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "joint"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_resumed_forecasts_match_the_live_session(
        self, dtype, scalar, failure, tmp_path
    ):
        cfg = factored_config(dtype, scalar)
        kwargs = (
            {"forecaster_factory": cluster_one_fails}
            if failure == "cluster" else {}
        )
        session = Engine(cfg, **kwargs).session(30, 2)
        if failure == "group":
            # Group 0's bank fails outright: the pipeline holds the
            # group's float64 centroids at every horizon.
            def bank_down(horizon):
                raise ReproError("bank down")

            session.pipeline.bank(0)._forecast = bank_down
        trace = walk_2d(seed=3)
        for row in trace:
            output = session.ingest(row)
        live = session.forecast()
        factors = output.forecast_factors
        assert factors.centroids.dtype == np.float64
        assert factors.offsets.dtype == np.float64
        if failure == "group" and dtype == "float32":
            # The held centroids are no float32 values, so a rebuild
            # from the dtype-cast centroid forecasts would differ.
            cast = np.stack([
                output.centroid_forecasts[h] for h in factors.horizons
            ])
            assert not np.array_equal(cast, factors.centroids)
        path = session.save(tmp_path / "session.ckpt")
        for source in (path, session.snapshot(), Checkpoint.load(path)):
            resumed = Engine(cfg, **kwargs).resume(source)
            assert_forecasts_identical(resumed.forecast(), live)

    def test_forecasts_are_composed_at_the_first_call(
        self, tmp_path, monkeypatch
    ):
        cfg = factored_config()
        session = Engine(cfg).session(30, 2)
        for row in walk_2d(seed=4):
            session.ingest(row)
        path = session.save(tmp_path / "session.ckpt")
        compose = ForecastFactors.compose
        calls = []

        def counted(self, groups, dtype):
            calls.append(dtype)
            return compose(self, groups, dtype)

        monkeypatch.setattr(ForecastFactors, "compose", counted)
        resumed = Engine(cfg).resume(path)
        assert calls == []
        first = resumed.forecast()
        second = resumed.forecast(horizons=[2])
        assert calls == [np.dtype(np.float64)]
        assert second[2] is first[2]
        for forecast in first.values():
            with pytest.raises(ValueError):
                forecast += 1.0
        assert_forecasts_identical(first, session.forecast())

    def test_archive_stores_the_factors(self, tmp_path):
        cfg = factored_config(clusters=3)
        session = Engine(cfg).session(30, 2)
        for row in walk_2d(seed=5):
            session.ingest(row)
        state = Checkpoint.load(session.save(tmp_path / "s.ckpt")).state
        forecasts = state["forecasts"]
        assert set(forecasts) == {
            "horizons", "centroids", "memberships", "offsets"
        }
        assert forecasts["horizons"] == [1, 2, 3]
        assert forecasts["centroids"].shape == (3, 3, 2)
        assert forecasts["centroids"].dtype == np.float64
        assert forecasts["memberships"].shape == (2, 30)
        assert forecasts["memberships"].dtype == np.uint8
        assert forecasts["offsets"].shape == (30, 2)
        assert forecasts["offsets"].dtype == np.float64

    @pytest.mark.parametrize("churn", ["grow", "compact"])
    def test_forecast_after_churn_serves_the_last_slots(self, churn, tmp_path):
        """Churn between slots leaves the latest forecasts as they were
        (the fleet's old size) until the next ingest, resumed or not."""
        cfg = factored_config()
        session = Engine(cfg).session(30, 2)
        for row in walk_2d(seed=6):
            session.ingest(row)
        before = session.forecast()
        if churn == "grow":
            session.grow(2)
        else:
            session.compact(np.arange(0, 30, 2))
        assert_forecasts_identical(session.forecast(), before)
        resumed = Engine(cfg).resume(session.save(tmp_path / "s.ckpt"))
        assert resumed.num_nodes == session.num_nodes
        assert_forecasts_identical(resumed.forecast(), before)
        row = walk_2d(steps=1, nodes=resumed.num_nodes, seed=7)[0]
        assert_forecasts_identical(
            resumed.ingest(row).node_forecasts,
            session.ingest(row).node_forecasts,
        )


class TestLabelDtype:
    """Node-aligned label state lies in [0, K): it is kept in
    ``np.min_scalar_type(K - 1)`` in the trackers' windows, the
    pipeline's rings and the checkpoint, while the labels a slot
    returns stay int64."""

    @staticmethod
    def label_arrays(session):
        pipeline = session.pipeline
        for g in range(pipeline.num_groups):
            yield from pipeline.tracker(g)._label_window
            yield pipeline._label_history[g].ordered()
        state = session.snapshot().state
        for tracker in state["pipeline"]["trackers"]:
            yield tracker["labels"]
        for ring in state["pipeline"]["label_history"]:
            yield ring["window"]
        # A session resumed from a format-1 or format-2 archive keeps
        # the archived composed forecasts until it ingests.
        forecasts = state["forecasts"]
        if forecasts is not None and "memberships" in forecasts:
            yield forecasts["memberships"]

    @pytest.mark.parametrize("clusters,expected", [
        (3, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16),
    ])
    def test_label_state_has_the_narrowest_dtype(
        self, clusters, expected, tmp_path
    ):
        # At N = 300, K = 300 takes the tracker's identity path.  Few
        # slots: re-indexing solves a K x K assignment per slot.
        nodes = 300
        cfg = factored_config(clusters=clusters, initial=1)
        session = Engine(cfg).session(nodes, 1)
        rng = np.random.default_rng(clusters)
        trace = rng.uniform(0, 1, (2, nodes))
        for row in trace:
            output = session.ingest(row)
        assert output.node_forecasts is not None
        for assignment in output.assignments:
            assert assignment.labels.dtype == np.int64
        assert output.memberships.dtype == np.int64
        # The newest window row holds the slot's labels unwrapped.
        window = session.pipeline.tracker(0)._label_window
        np.testing.assert_array_equal(
            window[-1], output.assignments[0].labels
        )
        for labels in self.label_arrays(session):
            assert labels.dtype == expected
        resumed = Engine(cfg).resume(session.save(tmp_path / "s.ckpt"))
        for labels in self.label_arrays(resumed):
            assert labels.dtype == expected
        row = rng.uniform(0, 1, nodes)
        assert_outputs_equal(session.ingest(row), resumed.ingest(row))

    def test_int64_labels_of_a_format2_archive_are_narrowed(self):
        path = Path(__file__).parent / "data" / "format2" / "adaptive.ckpt"
        checkpoint = Checkpoint.load(path)
        archived = checkpoint.state["pipeline"]
        assert archived["trackers"][0]["labels"].dtype == np.int64
        assert archived["label_history"][0]["window"].dtype == np.int64
        for mmap in (False, True):
            engine = Engine.from_config(
                checkpoint.config, policy=checkpoint.session["policy"]
            )
            resumed = engine.resume(path, mmap=mmap)
            arrays = list(self.label_arrays(resumed))
            assert arrays
            for labels in arrays:
                assert labels.dtype == np.uint8
            restored = resumed.snapshot().state["pipeline"]
            np.testing.assert_array_equal(
                restored["trackers"][0]["labels"],
                archived["trackers"][0]["labels"],
            )
            np.testing.assert_array_equal(
                restored["label_history"][0]["window"],
                archived["label_history"][0]["window"],
            )

