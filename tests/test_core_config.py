"""Tests for repro.core.config validation and defaults."""

import pytest

from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.exceptions import ConfigurationError


class TestTransmissionConfig:
    def test_paper_defaults(self):
        config = TransmissionConfig()
        assert config.budget == 0.3
        assert config.gamma == 0.65

    @pytest.mark.parametrize("budget", [0.0, -0.1, 1.5])
    def test_invalid_budget(self, budget):
        with pytest.raises(ConfigurationError):
            TransmissionConfig(budget=budget)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ConfigurationError):
            TransmissionConfig(gamma=gamma)

    def test_invalid_v0(self):
        with pytest.raises(ConfigurationError):
            TransmissionConfig(v0=0.0)

    def test_budget_one_allowed(self):
        assert TransmissionConfig(budget=1.0).budget == 1.0


class TestClusteringConfig:
    def test_paper_defaults(self):
        config = ClusteringConfig()
        assert config.num_clusters == 3
        assert config.history_depth == 1
        assert config.similarity == "intersection"
        assert config.scalar_per_resource is True

    def test_invalid_num_clusters(self):
        with pytest.raises(ConfigurationError):
            ClusteringConfig(num_clusters=0)

    def test_invalid_similarity(self):
        with pytest.raises(ConfigurationError):
            ClusteringConfig(similarity="cosine")

    def test_invalid_history(self):
        with pytest.raises(ConfigurationError):
            ClusteringConfig(history_depth=0)

    def test_invalid_window(self):
        # ``window`` was accepted and checkpointed but never read, so it
        # is gone.  Configs written before carry ``window: 1`` (every
        # golden archive does), which loads; any other value never took
        # effect, so it raises.
        legacy = PipelineConfig().to_dict()
        legacy["clustering"]["window"] = 1
        assert PipelineConfig.from_dict(legacy) == PipelineConfig()
        for window in (0, 5, 30):
            legacy["clustering"]["window"] = window
            with pytest.raises(ConfigurationError, match="never took"):
                PipelineConfig.from_dict(legacy)
        with pytest.raises(TypeError):
            ClusteringConfig(window=1)

    def test_jaccard_accepted(self):
        assert ClusteringConfig(similarity="jaccard").similarity == "jaccard"


class TestForecastingConfig:
    def test_paper_defaults(self):
        config = ForecastingConfig()
        assert config.membership_lookback == 5
        assert config.initial_collection == 1000
        assert config.retrain_interval == 288
        assert config.arima_max_p == 5
        assert config.arima_max_d == 2
        assert config.arima_max_q == 5

    def test_invalid_model(self):
        with pytest.raises(ConfigurationError):
            ForecastingConfig(model="prophet")

    @pytest.mark.parametrize(
        "field", ["membership_lookback", "initial_collection",
                  "retrain_interval", "max_horizon"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ConfigurationError):
            ForecastingConfig(**{field: 0})

    def test_negative_arima_bound(self):
        with pytest.raises(ConfigurationError):
            ForecastingConfig(arima_max_p=-1)

    def test_invalid_lstm(self):
        with pytest.raises(ConfigurationError):
            ForecastingConfig(lstm_hidden=0)


class TestPipelineConfig:
    def test_small_factory(self):
        config = PipelineConfig.small(num_clusters=2, budget=0.5)
        assert config.clustering.num_clusters == 2
        assert config.transmission.budget == 0.5
        assert config.forecasting.initial_collection < 1000

    def test_frozen(self):
        config = PipelineConfig()
        with pytest.raises(AttributeError):
            config.transmission = TransmissionConfig()
