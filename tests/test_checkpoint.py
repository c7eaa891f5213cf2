"""Checkpoint/resume tests (repro.checkpoint + Engine.resume).

The core property, enforced across every registered transmission policy
and every forecaster bank (object bank included): snapshot a session at
an arbitrary slot, resume it in a fresh engine, and every future output
— forecasts, cluster assignments, transport counters — is bit-identical
to the session that never stopped.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    as_checkpoint,
    config_mismatch,
)
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
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
        assert checkpoint.version == CHECKPOINT_FORMAT_VERSION == 1
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
