"""Checkpoint/resume tests (repro.checkpoint + Engine.resume).

The core property, enforced across every registered transmission policy
and every forecaster bank (object bank included): snapshot a session at
an arbitrary slot, resume it in a fresh engine, and every future output
— forecasts, cluster assignments, transport counters — is bit-identical
to the session that never stopped.
"""

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
import tracemalloc
import warnings
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import Engine
from repro.checkpoint import (
    _RELEASE_CAP,
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
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
from repro.core.ring import SlotSeries
from repro.exceptions import CheckpointError
from repro.forecasting.base import Forecaster

POLICIES = ("adaptive", "uniform", "deadband", "perfect")
#: (model, bank) pairs covering every vectorized bank plus the object
#: bank adapter (sample_hold forced through ObjectBank, and holt which
#: has no vectorized bank at all).
BANKS = (
    ("sample_hold", "auto"),
    ("mean", "auto"),
    ("ses", "auto"),
    ("ar", "auto"),
    ("sample_hold", "object"),
    ("holt", "auto"),
)


def config(model="sample_hold", bank="auto", initial=12, horizon=2):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=2, seed=0),
        forecasting=ForecastingConfig(
            model=model,
            bank=bank,
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


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
        cfg = config(model=model, bank=bank)
        trace = walk_trace(seed=seed)
        roundtrip_is_bit_identical(cfg, trace, cut, tmp_path)

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
        assert checkpoint.version == CHECKPOINT_FORMAT_VERSION == 2
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
        from repro.forecasting.sample_hold import MeanForecaster

        self.roundtrip(MeanForecaster)

    def test_ses(self):
        from repro.forecasting.exponential import SimpleExponentialSmoothing

        self.roundtrip(SimpleExponentialSmoothing)

    def test_holt(self):
        from repro.forecasting.exponential import HoltLinear

        self.roundtrip(HoltLinear)

    def test_holt_winters(self):
        from repro.forecasting.exponential import HoltWinters

        self.roundtrip(lambda: HoltWinters(period=12))

    def test_yule_walker(self):
        from repro.forecasting.yule_walker import YuleWalkerAR

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


#: Member bytes no loader may turn into an array: headers that overstate
#: the payload, a subarray dtype that does not fit it, and a header
#: numpy's tokenizer fails on (an unterminated string).
MALFORMED_MEMBERS = {
    "one-more-element": lambda a: npy_bytes(a, shape=(a.size + 1,)),
    "negative-dimension": lambda a: npy_bytes(a, shape=(-a.size,)),
    "subarray-dtype": lambda a: npy_bytes(
        a, descr=(a.dtype.str, (2,)), shape=(a.size // 2,)
    ),
    "unterminated-header": lambda a: (
        b"\x93NUMPY\x01\x00\x04\x00'''\n" + a.tobytes()
    ),
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

write_array = np.lib.format.write_array
written = []


def write_then_die(*args, **kwargs):
    if written:
        os.kill(os.getpid(), signal.SIGKILL)
    written.append(1)
    return write_array(*args, **kwargs)


np.lib.format.write_array = write_then_die
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
        # Loads take turns: numpy parses npy headers with
        # ast.literal_eval, and CPython 3.11.7's parser can raise
        # "SystemError: AST constructor recursion depth mismatch" when
        # two threads parse at once.  Saves and drops still overlap.
        cfg, session = self.probe()
        expected = session.snapshot().state
        loading = threading.Lock()
        done = []

        def cycles(index):
            path = tmp_path / f"saver-{index}.ckpt"
            for _ in range(10):
                session.save(path)
                with loading:
                    fresh = Engine(cfg).resume(path)
                resumed = fresh  # drops the previous one outside the lock
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
