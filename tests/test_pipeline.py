"""Tests for the end-to-end online pipeline (Fig. 2)."""

import numpy as np
import pytest

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.pipeline import OnlinePipeline, default_forecaster_factory
from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.arima import AutoArima
from repro.forecasting.lstm import LstmForecaster
from repro.forecasting.sample_hold import SampleHoldForecaster


def small_config(model="sample_hold", num_clusters=2, horizon=3,
                 initial=20, retrain=20, budget=0.3):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=budget),
        clustering=ClusteringConfig(num_clusters=num_clusters, seed=0),
        forecasting=ForecastingConfig(
            model=model,
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=retrain,
            arima_max_p=1,
            arima_max_d=1,
            arima_max_q=0,
            lstm_hidden=4,
            lstm_lookback=5,
            lstm_epochs=2,
            seed=0,
        ),
    )


def grouped_trace(steps=80, seed=0):
    """Two groups of nodes around slowly drifting levels."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)
    low = 0.2 + 0.05 * np.sin(2 * np.pi * t / 40)
    high = 0.7 + 0.05 * np.cos(2 * np.pi * t / 40)
    trace = np.empty((steps, 8))
    for i in range(4):
        trace[:, i] = low + rng.normal(0, 0.01, steps)
    for i in range(4, 8):
        trace[:, i] = high + rng.normal(0, 0.01, steps)
    return np.clip(trace, 0, 1)


class TestDefaultForecasterFactory:
    def test_sample_hold(self):
        # sample_hold runs through its bank, so FORECASTERS holds no
        # builder for it.
        factory = default_forecaster_factory(ForecastingConfig())
        with pytest.raises(ConfigurationError, match="unknown forecaster"):
            factory(0, 0)

    def test_arima(self):
        factory = default_forecaster_factory(
            ForecastingConfig(model="arima")
        )
        assert isinstance(factory(0, 0), AutoArima)

    def test_lstm_distinct_seeds(self):
        factory = default_forecaster_factory(
            ForecastingConfig(model="lstm", seed=1)
        )
        a = factory(0, 0)
        b = factory(1, 0)
        assert isinstance(a, LstmForecaster)
        assert a._rng.bit_generator.state != b._rng.bit_generator.state


class TestOnlinePipeline:
    def test_no_forecast_before_initial_collection(self):
        pipeline = OnlinePipeline(8, 1, small_config(initial=30))
        trace = grouped_trace()
        for t in range(29):
            output = pipeline.step(trace[t])
            assert output.node_forecasts is None

    def test_forecasts_after_initial_collection(self):
        pipeline = OnlinePipeline(8, 1, small_config(initial=20, horizon=3))
        trace = grouped_trace()
        last = None
        for t in range(40):
            last = pipeline.step(trace[t])
        assert last.node_forecasts is not None
        assert set(last.node_forecasts) == {1, 2, 3}
        assert last.node_forecasts[1].shape == (8, 1)
        assert last.centroid_forecasts[1].shape == (2, 1)
        assert last.memberships.shape == (1, 8)

    def test_forecast_accuracy_on_grouped_data(self):
        # Sample-and-hold + offsets should track the two groups well.
        pipeline = OnlinePipeline(8, 1, small_config(initial=20, horizon=1))
        trace = grouped_trace()
        errors = []
        outputs = []
        for t in range(80):
            outputs.append(pipeline.step(trace[t]))
        for t in range(20, 79):
            prediction = outputs[t].node_forecasts[1][:, 0]
            errors.append(np.abs(prediction - trace[t + 1]).mean())
        assert np.mean(errors) < 0.05

    def test_scalar_groups_per_resource(self):
        pipeline = OnlinePipeline(5, 2, small_config())
        assert pipeline.num_groups == 2

    def test_joint_clustering_single_group(self):
        config = PipelineConfig(
            clustering=ClusteringConfig(
                num_clusters=2, scalar_per_resource=False, seed=0
            ),
            forecasting=ForecastingConfig(
                model="sample_hold", max_horizon=2,
                initial_collection=10, retrain_interval=10,
            ),
        )
        pipeline = OnlinePipeline(6, 2, config)
        assert pipeline.num_groups == 1
        rng = np.random.default_rng(0)
        last = None
        for t in range(25):
            last = pipeline.step(rng.random((6, 2)))
        assert last.node_forecasts[1].shape == (6, 2)

    def test_wrong_shape_rejected(self):
        pipeline = OnlinePipeline(4, 1, small_config())
        with pytest.raises(DataError):
            pipeline.step(np.zeros((5, 1)))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            OnlinePipeline(0, 1)

    def test_custom_forecaster_factory(self):
        calls = []

        def factory(cluster, group):
            calls.append((cluster, group))
            return SampleHoldForecaster()

        OnlinePipeline(4, 2, small_config(), forecaster_factory=factory)
        assert len(calls) == 4  # 2 clusters x 2 resource groups

    def test_retraining_happens(self):
        config = small_config(initial=10, retrain=5)
        pipeline = OnlinePipeline(8, 1, config)
        trace = grouped_trace()
        trains = []
        for t in range(30):
            pipeline.step(trace[t])
            trains.append(pipeline._last_train)
        assert trains[9] == 9
        assert trains[14] == 14
        assert trains[19] == 19


class TestRunPipeline:
    """Batch runs of the whole pipeline through Engine.run."""

    def test_h0_is_collection_error(self):
        trace = grouped_trace()
        result = Engine(small_config(budget=1.0)).run(trace)
        assert result.rmse_by_horizon[0] == pytest.approx(0.0, abs=1e-12)

    def test_rmse_increases_with_horizon_on_drifting_data(self):
        rng = np.random.default_rng(1)
        walk = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.02, size=(120, 6)), axis=0), 0, 1
        )
        result = Engine(small_config(horizon=5, initial=30)).run(walk)
        assert result.rmse_by_horizon[5] >= result.rmse_by_horizon[1] - 0.01

    def test_uniform_collection_mode(self):
        trace = grouped_trace()
        result = Engine(small_config(), policy="uniform").run(trace)
        assert 0 in result.rmse_by_horizon

    def test_perfect_collection_mode(self):
        trace = grouped_trace()
        result = Engine(small_config(), policy="perfect").run(trace)
        assert result.decisions.all()
        assert result.rmse_by_horizon[0] == 0.0

    def test_unknown_collection_mode(self):
        with pytest.raises(ConfigurationError):
            Engine(small_config(), policy="xyz")

    def test_horizon_subset(self):
        trace = grouped_trace()
        result = Engine(small_config(horizon=3)).run(
            trace, horizons=[1, 3]
        )
        assert set(result.rmse_by_horizon) == {1, 3}

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(small_config(horizon=3)).run(
                grouped_trace(), horizons=[7]
            )

    def test_intermediate_rmse_reported(self):
        result = Engine(small_config()).run(grouped_trace())
        assert 0 <= result.intermediate_rmse < 0.5

    def test_forecast_start_recorded(self):
        result = Engine(small_config(initial=20)).run(grouped_trace())
        assert result.forecast_start == 19

    def test_arima_model_end_to_end(self):
        trace = grouped_trace()
        result = Engine(
            small_config(model="arima", initial=30, horizon=2)
        ).run(trace)
        assert result.rmse_by_horizon[1] < 0.2

    def test_lstm_model_end_to_end(self):
        trace = grouped_trace()
        result = Engine(
            small_config(model="lstm", initial=30, horizon=2)
        ).run(trace)
        assert result.rmse_by_horizon[1] < 0.3

    def test_multiresource_trace(self):
        rng = np.random.default_rng(2)
        trace = rng.random((60, 5, 2))
        result = Engine(small_config(initial=20, horizon=2)).run(trace)
        assert 1 in result.rmse_by_horizon
