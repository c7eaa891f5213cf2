"""Tests for the component registries (repro.registry)."""

import numpy as np
import pytest

from collection_oracle import POLICIES
from repro.core.config import ForecastingConfig, PipelineConfig
from repro.core.pipeline import default_forecaster_factory
from repro.exceptions import ConfigurationError
from repro.registry import (
    COLLECTION_BACKENDS,
    FORECASTERS,
    FORECASTER_BANKS,
    SIMILARITY_MEASURES,
    SLOT_KERNELS,
    Registry,
)


class TestRegistryMechanics:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", object)
        assert registry.get("a") is object
        assert "a" in registry
        assert registry.available() == ("a",)

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("fancy")
        def build():
            return 42

        assert registry.create("fancy") == 42

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", object)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", int)

    def test_same_object_reregistration_is_noop(self):
        registry = Registry("widget")
        registry.register("a", object)
        registry.register("a", object)  # idempotent (module re-import)
        assert registry.get("a") is object

    def test_override_replaces(self):
        registry = Registry("widget")
        registry.register("a", object)
        registry.register("a", int, override=True)
        assert registry.get("a") is int

    def test_invalid_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ConfigurationError):
            registry.register("", object)
        with pytest.raises(ConfigurationError):
            registry.register(3, object)

    def test_unknown_name_lists_available(self):
        registry = Registry("widget")
        registry.register("alpha", object)
        with pytest.raises(ConfigurationError, match="alpha"):
            registry.get("beta")

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ConfigurationError, match="holt_winters"):
            FORECASTERS.get("holt_winter")
        with pytest.raises(ConfigurationError, match="did you mean"):
            FORECASTERS.get("armia")

    def test_iteration_and_len(self):
        registry = Registry("widget")
        registry.register("b", object)
        registry.register("a", int)
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2


class TestBuiltinRegistries:
    def test_forecasters_available(self):
        # The models without a vectorized bank; the others run through
        # their FORECASTER_BANKS entry.
        assert FORECASTERS.available() == (
            "arima", "holt", "holt_winters", "lstm"
        )
        assert FORECASTER_BANKS.available() == (
            "ar", "mean", "sample_hold", "ses"
        )

    def test_collection_backends_available(self):
        names = COLLECTION_BACKENDS.available()
        for expected in ("adaptive", "uniform", "perfect", "deadband"):
            assert expected in names

    def test_transmission_policies_available(self):
        # Every policy the per-node oracle models ships as a slot kernel.
        names = SLOT_KERNELS.available()
        for expected in ("adaptive", "uniform", "deadband", "perfect"):
            assert expected in names
        assert set(POLICIES) <= set(names)

    def test_similarity_measures_available(self):
        assert set(SIMILARITY_MEASURES.available()) >= {
            "intersection", "jaccard",
        }

    def test_every_forecaster_constructible_from_config(self):
        # Round trip: each registered name is a valid ForecastingConfig
        # model, and the default factory builds a usable forecaster.
        for name in FORECASTERS.available():
            config = ForecastingConfig(model=name, seed=0)
            factory = default_forecaster_factory(config)
            forecaster = factory(0, 0)
            assert hasattr(forecaster, "fit"), name
            assert hasattr(forecaster, "forecast"), name
            assert hasattr(forecaster, "update"), name

    def test_every_transmission_policy_constructible_from_config(self):
        # Each kernel built from a config decides a slot for a batch of
        # nodes, and a node that has observed nothing always transmits.
        config = PipelineConfig().transmission
        x = np.full((3, 1), 0.5)
        for name in SLOT_KERNELS.available():
            kernel = SLOT_KERNELS.create(name, config)
            transmit = kernel(
                x, np.zeros_like(x), np.zeros(3, dtype=bool),
                np.zeros(3), np.zeros(3, dtype=np.int64),
            )
            assert transmit.dtype == bool, name
            assert transmit.tolist() == [True, True, True], name

    def test_unknown_model_rejected_by_config(self):
        with pytest.raises(ConfigurationError, match="unknown forecaster"):
            ForecastingConfig(model="transformer")

    def test_unknown_similarity_rejected_by_config(self):
        from repro.core.config import ClusteringConfig

        with pytest.raises(
            ConfigurationError, match="unknown similarity"
        ):
            ClusteringConfig(similarity="cosine")

    def test_user_registered_forecaster_usable_end_to_end(self):
        from repro.forecasting.sample_hold import SampleHoldForecaster
        from repro.registry import register_forecaster

        name = "test_only_model"
        if name not in FORECASTERS:
            @register_forecaster(name)
            def _build(config, cluster, group):
                return SampleHoldForecaster()

        config = ForecastingConfig(model=name)
        forecaster = default_forecaster_factory(config)(1, 0)
        assert isinstance(forecaster, SampleHoldForecaster)
