"""Dtype-parameterized columns: float32 fleets track float64 closely.

The pipeline's ``dtype`` knob threads one floating dtype through the
fleet columns, slot kernels and forecaster banks.  float64 is the
default and stays bit-identical to the pre-knob pipeline (covered by
the equivalence/checkpoint suites); float32 halves the state footprint
and is pinned here to *tolerances*: transmit decisions agree except for
rare near-tie flips, and every surviving number tracks float64 to
single-precision accuracy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.core.config import (
    SUPPORTED_DTYPES,
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
)
from repro.core.pipeline import OnlinePipeline
from repro.core.types import validate_trace
from repro.exceptions import CheckpointError, ConfigurationError
from repro.forecasting.bank import resolve_bank
from repro.simulation.collection import collect
from repro.simulation.fleet import FleetState

BACKENDS = ("adaptive", "uniform", "deadband", "perfect")
#: Forecaster models with vectorized closed-form banks.
BANK_MODELS = ("sample_hold", "mean", "ses", "ar")
#: Measured float32-vs-float64 decision disagreement is 0.0 over 60
#: seeds x 4 backends; near-tie threshold flips are possible in
#: principle, so the pin allows a small fraction rather than zero.
MAX_DECISION_DISAGREEMENT = 0.02


def walk_trace(steps=40, nodes=10, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    walk = np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.03, (steps, nodes)), axis=0), 0, 1
    )
    return walk.astype(dtype)


class TestConfigSurface:
    def test_supported_dtypes(self):
        assert SUPPORTED_DTYPES == ("float64", "float32")
        assert PipelineConfig().dtype == "float64"
        assert PipelineConfig().np_dtype == np.dtype(np.float64)
        assert PipelineConfig(dtype="float32").np_dtype == np.dtype(
            np.float32
        )

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            PipelineConfig(dtype="float16")
        with pytest.raises(ConfigurationError, match="dtype"):
            PipelineConfig(dtype="int64")

    def test_dtype_roundtrips_through_dict(self):
        cfg = PipelineConfig.small(dtype="float32")
        assert cfg.to_dict()["dtype"] == "float32"
        assert PipelineConfig.from_dict(cfg.to_dict()).dtype == "float32"

    def test_missing_dtype_defaults_to_float64(self):
        # Checkpoints and configs written before the knob existed carry
        # no dtype key; they must resolve to the historical float64.
        payload = PipelineConfig.small().to_dict()
        del payload["dtype"]
        assert PipelineConfig.from_dict(payload).dtype == "float64"

    def test_non_string_dtype_rejected(self):
        payload = PipelineConfig.small().to_dict()
        payload["dtype"] = np.float32
        with pytest.raises(ConfigurationError, match="string"):
            PipelineConfig.from_dict(payload)


class TestColumnDtypes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_validate_trace_preserves_requested_dtype(self, dtype):
        trace = walk_trace(dtype=dtype)
        data = validate_trace(trace, dtype=dtype)
        assert data.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("name", ["float64", "float32"])
    def test_fleet_state_allocates_in_dtype(self, name):
        fleet = FleetState(5, dim=2, dtype=np.dtype(name))
        assert fleet.stored.dtype == np.dtype(name)
        assert fleet.policy_state.dtype == np.dtype(name)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_collection_computes_in_trace_dtype(self, backend):
        trace = walk_trace(dtype=np.float32)
        result = collect(trace, backend=backend)
        assert result.stored.dtype == np.dtype(np.float32)

    def test_engine_run_carries_config_dtype(self):
        cfg = PipelineConfig.small(
            initial_collection=20, retrain_interval=20, dtype="float32"
        )
        result = Engine(cfg).run(walk_trace(seed=2))
        assert result.stored.dtype == np.dtype(np.float32)

    def test_clustering_stays_float64(self):
        # A float32 K-means would relabel float32 sessions and break the
        # bit-identical resume of their checkpoints.
        cfg = PipelineConfig.small(
            initial_collection=20, retrain_interval=20, dtype="float32"
        )
        pipeline = OnlinePipeline(10, 1, cfg)
        for row in walk_trace(seed=3, dtype=np.float32):
            output = pipeline.step(row)
        assert output.stored.dtype == np.dtype(np.float32)
        assert output.assignments[0].centroids.dtype == np.dtype(np.float64)
        tracker = pipeline.tracker(0)
        assert tracker.centroid_tensor().dtype == np.dtype(np.float64)
        assert tracker.get_state()["centroids"].dtype == np.dtype(np.float64)


class TestFloat32TracksFloat64:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_collection_decisions_and_stored(self, backend, seed):
        trace = walk_trace(seed=seed)
        r64 = collect(trace, backend=backend)
        r32 = collect(trace.astype(np.float32), backend=backend)

        disagree = np.mean(r64.decisions != r32.decisions)
        assert disagree <= MAX_DECISION_DISAGREEMENT, (
            f"{backend}: {disagree:.3%} of transmit decisions flipped "
            f"between float32 and float64"
        )
        # Where the policies agreed, the stored values are the same
        # measurements up to single-precision representation.
        agree = r64.decisions == r32.decisions
        np.testing.assert_allclose(
            r64.stored[agree],
            r32.stored[agree].astype(np.float64),
            atol=1e-5,
            rtol=1e-5,
        )

    @pytest.mark.parametrize("model", BANK_MODELS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_closed_form_banks(self, model, seed):
        rng = np.random.default_rng(seed)
        series = rng.normal(0.5, 0.2, size=(30, 3, 2))

        def bank(dtype):
            built = resolve_bank(
                ForecastingConfig(model=model),
                num_clusters=3,
                dim=2,
                dtype=dtype,
            )
            return built.fit(series.astype(dtype))

        f64 = bank(np.float64).forecast(4)
        f32 = bank(np.float32).forecast(4)
        assert f64.dtype == np.dtype(np.float64)
        assert f32.dtype == np.dtype(np.float32)
        # Measured max gap is ~1e-7 across all four banks; the pin
        # leaves an order of magnitude of slack.
        np.testing.assert_allclose(
            f64, f32.astype(np.float64), atol=1e-5, rtol=1e-4
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_end_to_end_rmse_tracks(self, seed):
        trace = walk_trace(steps=60, nodes=8, seed=seed)
        kwargs = dict(
            num_clusters=2, initial_collection=25, retrain_interval=25
        )
        r64 = Engine(PipelineConfig.small(**kwargs)).run(trace)
        r32 = Engine(
            PipelineConfig.small(dtype="float32", **kwargs)
        ).run(trace)
        for h in r64.rmse_by_horizon:
            assert r64.rmse_by_horizon[h] == pytest.approx(
                r32.rmse_by_horizon[h], abs=1e-3
            )


class TestDtypeCheckpointGuard:
    def test_resume_across_dtypes_raises(self, tmp_path):
        cfg32 = PipelineConfig.small(
            initial_collection=10, retrain_interval=10, dtype="float32"
        )
        session = Engine(cfg32).session(4, 1)
        trace = walk_trace(steps=5, nodes=4, dtype=np.float32)
        for row in trace:
            session.ingest(row)
        path = session.save(tmp_path / "f32.ckpt")

        cfg64 = PipelineConfig.small(
            initial_collection=10, retrain_interval=10
        )
        with pytest.raises(CheckpointError, match="dtype"):
            Engine(cfg64).resume(path)

    def test_same_dtype_resume_is_allowed(self, tmp_path):
        cfg = PipelineConfig.small(
            initial_collection=10, retrain_interval=10, dtype="float32"
        )
        session = Engine(cfg).session(4, 1)
        for row in walk_trace(steps=5, nodes=4, dtype=np.float32):
            session.ingest(row)
        path = session.save(tmp_path / "ok.ckpt")
        resumed = Engine(cfg).resume(path)
        assert resumed.time == 5
        assert resumed.fleet.stored.dtype == np.dtype(np.float32)

    @pytest.mark.parametrize("cut", [15, 33, 50])
    @pytest.mark.parametrize("model", BANK_MODELS)
    def test_float32_resume_is_bit_identical(self, tmp_path, model, cut):
        """Bank parameters the kernels fit in float64 (means, levels,
        AR coefficients) must come back as float64, not float32."""
        cfg = PipelineConfig(
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model=model,
                max_horizon=3,
                initial_collection=10,
                retrain_interval=20,
            ),
            dtype="float32",
        )
        for seed in range(3):
            trace = walk_trace(steps=60, nodes=12, seed=seed)
            baseline = Engine(cfg).session(12, 1)
            expected = [baseline.ingest(row) for row in trace]
            interrupted = Engine(cfg).session(12, 1)
            for row in trace[:cut]:
                interrupted.ingest(row)
            path = interrupted.save(tmp_path / f"{seed}.ckpt")
            resumed = Engine(cfg).resume(path)
            for t in range(cut, trace.shape[0]):
                output = resumed.ingest(trace[t])
                for h, forecast in expected[t].node_forecasts.items():
                    np.testing.assert_array_equal(
                        output.node_forecasts[h], forecast
                    )
