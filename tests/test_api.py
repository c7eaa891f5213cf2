"""Tests for the unified Engine API (repro.api) and config round-trips."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.api import Engine, RunResult
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.metrics import (
    instantaneous_rmse,
    instantaneous_rmse_batch,
    time_averaged_rmse,
)
from repro.core.pipeline import OnlinePipeline, PipelineResult
from repro.core.types import validate_trace
from repro.exceptions import ConfigurationError, DataError
from repro.registry import COLLECTION_BACKENDS, SLOT_KERNELS


def config(budget=0.3, initial=20, horizon=2, clusters=2):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=budget),
        clustering=ClusteringConfig(num_clusters=clusters, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


def walk_trace(steps=60, nodes=6, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.03, (steps, nodes)), axis=0), 0, 1
    )


def run_pipeline(trace, cfg, collection):
    """Reference batch run: the collection backend, then the pipeline
    slot by slot, scored with the scalar metrics of Eq. 3 and Eq. 4."""
    data = validate_trace(trace)
    steps, nodes, dims = data.shape
    collected = COLLECTION_BACKENDS.create(collection, data, cfg.transmission)
    pipeline = OnlinePipeline(nodes, dims, cfg)
    errors = {h: [] for h in range(cfg.forecasting.max_horizon + 1)}
    intermediate_sq = []
    forecast_start = -1
    for t in range(steps):
        stored = collected.stored[t]
        output = pipeline.step(stored)
        errors[0].append(instantaneous_rmse(stored, data[t]))
        intermediate_sq.append(np.mean([
            instantaneous_rmse(
                a.centroids[a.labels], stored[:, list(group)]
            ) ** 2
            for a, group in zip(output.assignments, pipeline.groups)
        ]))
        if output.node_forecasts is None:
            continue
        if forecast_start < 0:
            forecast_start = t
        for h, forecast in output.node_forecasts.items():
            if t + h < steps:
                errors[h].append(instantaneous_rmse(forecast, data[t + h]))
    return {
        "stored": collected.stored,
        "decisions": collected.decisions,
        "rmse_by_horizon": {
            h: time_averaged_rmse(e) for h, e in errors.items() if e
        },
        "intermediate_rmse": float(np.sqrt(np.mean(intermediate_sq))),
        "forecast_start": forecast_start,
    }


class TestEngineBatchEquivalence:
    """Engine.run's batched scoring against the slot-by-slot reference."""

    @pytest.mark.parametrize("policy", ["adaptive", "uniform", "perfect"])
    def test_run_matches_run_pipeline(self, policy):
        trace = walk_trace(seed=7)
        cfg = config()
        old = run_pipeline(trace, cfg, policy)
        new = Engine(cfg, policy=policy).run(trace)
        assert sorted(old["rmse_by_horizon"]) == sorted(new.rmse_by_horizon)
        for h, rmse in old["rmse_by_horizon"].items():
            assert new.rmse_by_horizon[h] == pytest.approx(rmse, rel=1e-12)
        assert new.intermediate_rmse == pytest.approx(
            old["intermediate_rmse"], rel=1e-12
        )
        assert new.forecast_start == old["forecast_start"]
        np.testing.assert_array_equal(old["stored"], new.stored)
        np.testing.assert_array_equal(old["decisions"], new.decisions)

    def test_run_pipeline_returns_runresult(self):
        result = Engine(config()).run(walk_trace(steps=30))
        assert isinstance(result, RunResult)
        assert isinstance(result, PipelineResult)

    def test_run_with_horizons_subset(self):
        trace = walk_trace(seed=1)
        cfg = config(horizon=3)
        result = Engine(cfg).run(trace, horizons=[0, 2])
        assert set(result.rmse_by_horizon) == {0, 2}

    def test_run_horizon_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Engine(config(horizon=2)).run(walk_trace(), horizons=[5])

    def test_perfect_collection_zero_staleness(self):
        result = Engine(config(), policy="perfect").run(walk_trace())
        assert result.rmse_by_horizon[0] == 0.0

    def test_unknown_collection_fails_fast_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="adaptive"):
            Engine(config(), policy="adaptve")

    def test_policy_without_batch_backend_runs_sessions_only(
        self, monkeypatch
    ):
        # A custom policy is a slot-kernel registration; without a
        # collection backend of the same name it has no batch mode.
        kernel = SLOT_KERNELS.get("adaptive")
        monkeypatch.setitem(SLOT_KERNELS._entries, "session_only", kernel)
        engine = Engine(config(), policy="session_only")
        session = engine.session(6, 1)
        session.ingest(walk_trace()[0])
        assert session.policy == "session_only"
        with pytest.raises(
            ConfigurationError, match="unknown collection backend"
        ):
            engine.run(walk_trace())

    def test_runs_are_independent(self):
        engine = Engine(config())
        trace = walk_trace(seed=2)
        a = engine.run(trace)
        b = engine.run(trace)
        assert a.rmse_by_horizon == b.rmse_by_horizon


def batched_scores(result, trace, horizons=None):
    """Score a run as Engine.run did before it scored slot by slot.

    Re-runs the pipeline over ``result.stored``, keeps every slot's
    centroid estimate in a ``(T, N, d)`` series of the stored dtype,
    and scores the whole trajectory with one stacked call per horizon
    slot, h = 0 and resource group."""
    cfg = result.config
    data = validate_trace(trace, dtype=cfg.np_dtype)
    stored = result.stored
    num_steps, num_nodes, num_resources = stored.shape
    pipeline = OnlinePipeline(num_nodes, num_resources, cfg)
    max_h = cfg.forecasting.max_horizon
    eval_horizons = (
        list(horizons) if horizons is not None else list(range(max_h + 1))
    )
    sq_sums = {h: 0.0 for h in eval_horizons}
    sq_counts = {h: 0 for h in eval_horizons}
    forecast_horizons = np.asarray(
        [h for h in eval_horizons if h != 0], dtype=int
    )
    centers_series = np.empty_like(stored)
    groups = pipeline.groups
    for t in range(num_steps):
        output = pipeline.step(stored[t])
        for g, assignment in enumerate(output.assignments):
            centers_series[t][:, groups[g]] = assignment.centroids[
                assignment.labels
            ]
        if output.node_forecasts is None:
            continue
        live = forecast_horizons[t + forecast_horizons < num_steps]
        if live.size:
            estimates = np.stack(
                [output.node_forecasts[h] for h in live.tolist()]
            )
            errors = instantaneous_rmse_batch(estimates, data[t + live])
            for h, err in zip(live.tolist(), errors.tolist()):
                sq_sums[h] += err**2
                sq_counts[h] += 1
    if 0 in sq_sums:
        errors = instantaneous_rmse_batch(stored, data)
        sq_sums[0] = float(np.sum(errors**2))
        sq_counts[0] = num_steps
    group_sq = np.stack([
        instantaneous_rmse_batch(
            centers_series[:, :, group], stored[:, :, group]
        )
        ** 2
        for group in groups
    ])
    rmse_by_horizon = {
        h: float(np.sqrt(sq_sums[h] / sq_counts[h]))
        for h in eval_horizons
        if sq_counts[h] > 0
    }
    return rmse_by_horizon, float(np.sqrt(np.mean(group_sq.mean(axis=0))))


def scorer_config(dtype, joint, model):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(
            num_clusters=3, scalar_per_resource=not joint, seed=0
        ),
        forecasting=ForecastingConfig(
            model=model,
            max_horizon=3,
            initial_collection=15,
            retrain_interval=15,
        ),
        dtype=dtype,
    )


class TestSlotScorer:
    """Engine.run scores each slot as it closes; its figures equal the
    whole-trajectory scoring bit for bit."""

    @pytest.mark.parametrize("model", ["sample_hold", "ses"])
    @pytest.mark.parametrize("horizons", [None, (1, 3)], ids=["all", "h1h3"])
    @pytest.mark.parametrize(
        "shards", [(1, None), (3, 2)], ids=["1shard", "3shards"]
    )
    @pytest.mark.parametrize("joint", [False, True], ids=["scalar", "joint"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_batched_scoring(
        self, dtype, joint, shards, horizons, model
    ):
        rng = np.random.default_rng(5)
        trace = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.03, (45, 12, 2)), axis=0), 0, 1
        )
        cfg = scorer_config(dtype, joint, model)
        num_shards, workers = shards
        result = Engine(cfg).run(
            trace, horizons=horizons, shards=num_shards, workers=workers
        )
        rmse_by_horizon, intermediate = batched_scores(
            result, trace, horizons
        )
        assert {h: r.hex() for h, r in result.rmse_by_horizon.items()} == {
            h: r.hex() for h, r in rmse_by_horizon.items()
        }
        assert result.intermediate_rmse.hex() == intermediate.hex()


class TestRunMemory:
    """A run holds the trace, its collection and per-slot scores, never
    a whole-trace estimate series: counted allocations, not time."""

    @pytest.mark.parametrize(
        "shards", [(1, None), (2, 2)], ids=["1shard", "2shards"]
    )
    def test_peak_is_bounded_by_the_trace(self, shards):
        cfg = PipelineConfig(
            transmission=TransmissionConfig(budget=0.3),
            clustering=ClusteringConfig(
                num_clusters=5, scalar_per_resource=False, seed=0
            ),
            forecasting=ForecastingConfig(
                model="ses", max_horizon=5, initial_collection=10,
                retrain_interval=288,
            ),
        )
        rng = np.random.default_rng(0)
        trace = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.03, (40, 2000, 2)), axis=0), 0, 1
        )
        num_shards, workers = shards
        engine = Engine(cfg)
        # Warm up lazy imports and caches outside the traced run.
        engine.run(trace[:12], shards=num_shards, workers=workers)
        tracemalloc.start()
        try:
            engine.run(trace, shards=num_shards, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / trace.nbytes
        assert ratio <= 4.0, f"peak {ratio:.2f}x the trace"


class TestRunResult:
    def test_carries_provenance(self):
        cfg = config()
        result = Engine(cfg, policy="uniform").run(walk_trace())
        assert result.config is cfg
        assert result.collection == "uniform"
        # Vectorized backends do not account transport themselves; the
        # engine derives the counters from the decision matrix.
        assert result.transport is not None
        assert result.transport.messages == int(result.decisions.sum())
        assert result.fleet is not None
        assert result.shards == 1

    def test_timings_cover_all_stages(self):
        result = Engine(config()).run(walk_trace())
        for stage in (
            "collection", "clustering", "training", "forecasting",
            "metrics", "total",
        ):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0
        assert result.timings["total"] >= result.timings["collection"]

    def test_summary_is_printable(self):
        result = Engine(config()).run(walk_trace())
        text = result.summary()
        assert "RMSE" in text
        assert "timings" in text


class TestEngineStreamingEquivalence:
    """Engine's streaming mode: sessions wired with its policy."""

    def test_wrong_shape_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError):
            session.ingest(np.zeros(3))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(config()).session(0, 1)
        with pytest.raises(ConfigurationError):
            Engine(config()).session(4, 0)

    def test_streaming_policy_by_name(self):
        trace = walk_trace(steps=20, nodes=3)
        session = Engine(config(budget=0.5), policy="uniform").session(3, 1)
        assert session.policy == "uniform"
        for t in range(20):
            session.ingest(trace[t])
        # A forced first slot, then every second one of the remaining
        # 19 slots on the phase-0 rate accumulators.
        assert session.transport_stats.messages == 3 * (1 + 9)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="transmission policy"):
            Engine(config(), policy="morse")


class TestConfigRoundTrip:
    def test_to_dict_from_dict_identity(self):
        cfg = PipelineConfig.small(num_clusters=4, budget=0.2)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = PipelineConfig(
            forecasting=ForecastingConfig(model="ar", seed=3),
        )
        payload = json.dumps(cfg.to_dict())
        assert PipelineConfig.from_dict(json.loads(payload)) == cfg

    def test_missing_sections_use_defaults(self):
        cfg = PipelineConfig.from_dict({"transmission": {"budget": 0.5}})
        assert cfg.transmission.budget == 0.5
        assert cfg.clustering == ClusteringConfig()
        assert cfg.forecasting == ForecastingConfig()

    def test_unknown_section_rejected_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="forecasting"):
            PipelineConfig.from_dict({"forecastng": {}})

    def test_unknown_option_rejected_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="budget"):
            PipelineConfig.from_dict({"transmission": {"budgett": 0.1}})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"transmission": {"budget": 2.0}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict([1, 2, 3])
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"transmission": 7})


class TestEngineFromConfig:
    def test_from_pipeline_config(self):
        cfg = config()
        assert Engine.from_config(cfg).config is cfg

    def test_from_mapping(self):
        engine = Engine.from_config(
            {"forecasting": {"model": "ses"}}, policy="perfect"
        )
        assert engine.config.forecasting.model == "ses"
        assert engine.policy == "perfect"

    def test_from_json_file(self, tmp_path):
        cfg = PipelineConfig.small(initial_collection=25, retrain_interval=25)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        engine = Engine.from_config(path)
        assert engine.config == cfg
        result = engine.run(walk_trace(steps=40, nodes=5))
        assert 0 in result.rmse_by_horizon

    def test_bad_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(42)


class TestPipelineGroups:
    def test_groups_scalar_clustering(self):
        from repro.core.pipeline import OnlinePipeline

        pipeline = OnlinePipeline(5, 3, config())
        assert pipeline.groups == ((0,), (1,), (2,))

    def test_groups_joint_clustering(self):
        from repro.core.pipeline import OnlinePipeline

        cfg = PipelineConfig(
            clustering=ClusteringConfig(
                num_clusters=2, scalar_per_resource=False, seed=0
            ),
            forecasting=ForecastingConfig(
                model="sample_hold", initial_collection=10,
                retrain_interval=10,
            ),
        )
        pipeline = OnlinePipeline(5, 3, cfg)
        assert pipeline.groups == ((0, 1, 2),)

    def test_groups_is_read_only_copy(self):
        from repro.core.pipeline import OnlinePipeline

        pipeline = OnlinePipeline(5, 2, config())
        groups = pipeline.groups
        assert isinstance(groups, tuple)
        # Mutating the returned value cannot corrupt pipeline state.
        assert pipeline.groups == ((0,), (1,))
