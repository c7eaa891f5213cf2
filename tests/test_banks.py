"""The columnar model layer: banks vs loops of scalar forecasters.

Every vectorized bank is pinned **bit-identical** to a loop of the
per-series oracles in ``forecaster_oracle`` over random ``(T, M, d)``
centroid tensors — fit, transient updates and multi-horizon forecasts —
via hypothesis.  The ObjectBank adapter, the pipeline's
hold-last-centroid fallback and the registry/config resolution rules
are covered alongside.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forecaster_oracle import (
    MeanForecaster,
    SimpleExponentialSmoothing,
    YuleWalkerAR,
    oracle_factory,
)
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
)
from repro.core.pipeline import OnlinePipeline
from repro.exceptions import (
    ConfigurationError,
    DataError,
    NotFittedError,
    ReproError,
)
from repro.forecasting.bank import (
    BankForecastError,
    ExponentialBank,
    ForecasterBank,
    MeanBank,
    ObjectBank,
    SampleHoldBank,
    YuleWalkerBank,
    default_forecaster_factory,
    resolve_bank,
)
from repro.forecasting.sample_hold import SampleHoldForecaster
from repro.registry import FORECASTERS, FORECASTER_BANKS


def centroid_tensor(seed, steps, clusters, dim):
    """A random-walk centroid tensor, the shape banks consume."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0, 0.05, size=(steps, clusters, dim)), axis=0)
    return 0.5 + walk


def scalar_loop(make_forecaster, series, updates, horizon):
    """Drive one scalar forecaster per (cluster, dim) series.

    Returns the ``(H, M, d)`` forecasts of the object path — the
    pre-bank reference the vectorized banks must match bitwise.
    """
    steps, clusters, dim = series.shape
    out = np.empty((horizon, clusters, dim))
    for j in range(clusters):
        for r in range(dim):
            model = make_forecaster()
            model.fit(series[:, j, r])
            for values in updates:
                model.update(float(values[j, r]))
            out[:, j, r] = model.forecast(horizon)
    return out


def drive_bank(bank, series, updates, horizon):
    bank.fit(series)
    for values in updates:
        bank.update(values)
    return bank.forecast(horizon)


class TestVectorizedBankEquivalence:
    """Vectorized banks are bit-identical to scalar-forecaster loops."""

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_sample_hold(self, seed, clusters, dim, num_updates):
        series = centroid_tensor(seed, 6, clusters, dim)
        updates = centroid_tensor(seed + 1, max(num_updates, 1), clusters,
                                  dim)[:num_updates]
        expected = scalar_loop(SampleHoldForecaster, series, updates, 4)
        actual = drive_bank(SampleHoldBank(clusters, dim), series, updates, 4)
        np.testing.assert_array_equal(actual, expected)

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 3),
           st.integers(90, 140), st.integers(1, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mean(self, seed, clusters, dim, num_updates, steps, data):
        # A fit of at most 40 rows fills at most 64 rows of the bank's
        # history buffer; 90 or more updates double it at least twice.
        # A get_state/set_state round trip lands anywhere in between.
        cut = data.draw(st.integers(0, num_updates), label="cut")
        for dtype in (np.float64, np.float32):
            series = centroid_tensor(seed, steps, clusters, dim).astype(dtype)
            updates = centroid_tensor(seed + 1, num_updates, clusters,
                                      dim).astype(dtype)
            expected = scalar_loop(
                MeanForecaster, series.astype(float), updates.astype(float),
                3,
            ).astype(dtype)

            def bank():
                return resolve_bank(ForecastingConfig(model="mean"),
                                    num_clusters=clusters, dim=dim,
                                    dtype=dtype)

            live = bank().fit(series)
            for values in updates[:cut]:
                live.update(values)
            state = live.get_state()
            assert state["rows"].dtype == np.dtype(dtype)
            assert state["rows"].shape == (steps + cut, clusters * dim)
            resumed = bank()
            resumed.set_state(state)
            for values in updates[cut:]:
                resumed.update(values)
                live.update(values)
            actual = resumed.forecast(3)
            assert actual.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(actual, expected)
            assert live.forecast(3).tobytes() == actual.tobytes()

    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 3), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_ses_fitted_alpha(self, seed, clusters, dim, num_updates, steps):
        # Covers both the short-series path (T < 3 keeps the default
        # weight) and the per-series optimizer path.
        series = centroid_tensor(seed, steps, clusters, dim)
        updates = centroid_tensor(seed + 1, max(num_updates, 1), clusters,
                                  dim)[:num_updates]
        expected = scalar_loop(
            SimpleExponentialSmoothing, series, updates, 3
        )
        actual = drive_bank(ExponentialBank(clusters, dim), series, updates, 3)
        np.testing.assert_array_equal(actual, expected)

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 4), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_yule_walker(self, seed, clusters, dim, num_updates, order,
                         extra_steps):
        steps = order + 2 + extra_steps
        series = centroid_tensor(seed, steps, clusters, dim)
        updates = centroid_tensor(seed + 1, max(num_updates, 1), clusters,
                                  dim)[:num_updates]
        expected = scalar_loop(
            lambda: YuleWalkerAR(order=order), series, updates, 5
        )
        actual = drive_bank(
            YuleWalkerBank(clusters, dim, order=order), series, updates, 5
        )
        np.testing.assert_array_equal(actual, expected)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_yule_walker_constant_series_zero_coefficients(self, seed):
        # Constant columns take the zero-coefficient convention while
        # the rest of the batch is solved normally.
        series = centroid_tensor(seed, 12, 3, 1)
        series[:, 1, 0] = 0.25
        expected = scalar_loop(YuleWalkerAR, series, [], 3)
        bank = YuleWalkerBank(3, 1)
        actual = drive_bank(bank, series, [], 3)
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(bank.coefficients[:, 1], 0.0)

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_refit_replaces_history(self, seed, clusters, dim):
        # A second fit must reset state exactly like scalar refits do.
        first = centroid_tensor(seed, 8, clusters, dim)
        second = centroid_tensor(seed + 1, 11, clusters, dim)

        def refit_loop(make):
            out = np.empty((2, clusters, dim))
            for j in range(clusters):
                for r in range(dim):
                    model = make()
                    model.fit(first[:, j, r])
                    model.fit(second[:, j, r])
                    out[:, j, r] = model.forecast(2)
            return out

        for make, bank in [
            (SampleHoldForecaster, SampleHoldBank(clusters, dim)),
            (MeanForecaster, MeanBank(clusters, dim)),
            (YuleWalkerAR, YuleWalkerBank(clusters, dim)),
        ]:
            bank.fit(first)
            bank.fit(second)
            np.testing.assert_array_equal(
                bank.forecast(2), refit_loop(make)
            )


class TestObjectBank:
    def test_matches_vectorized_bank(self):
        series = centroid_tensor(3, 10, 4, 2)
        updates = centroid_tensor(4, 3, 4, 2)
        factory = oracle_factory(ForecastingConfig(model="sample_hold"))
        object_forecast = drive_bank(
            ObjectBank(factory, 4, 2), series, updates, 3
        )
        vector_forecast = drive_bank(
            SampleHoldBank(4, 2), series, updates, 3
        )
        np.testing.assert_array_equal(object_forecast, vector_forecast)

    def test_factory_receives_cluster_and_group(self):
        calls = []

        def factory(cluster, group):
            calls.append((cluster, group))
            return SampleHoldForecaster()

        ObjectBank(factory, 3, 2, group=7)
        assert calls == [(j, 7) for j in range(3) for _ in range(2)]

    def test_partial_failure_raises_bank_forecast_error(self):
        class Failing(SampleHoldForecaster):
            def _forecast(self, horizon):
                raise DataError("boom")

        def factory(cluster, group):
            return Failing() if cluster == 1 else SampleHoldForecaster()

        bank = ObjectBank(factory, 3, 1)
        series = centroid_tensor(0, 6, 3, 1)
        bank.fit(series)
        with pytest.raises(BankForecastError) as excinfo:
            bank.forecast(2)
        error = excinfo.value
        assert set(error.failures) == {1}
        assert error.forecasts.shape == (2, 3, 1)
        # Non-failed clusters carry their real forecasts.
        np.testing.assert_array_equal(
            error.forecasts[:, 0, 0], np.full(2, series[-1, 0, 0])
        )
        np.testing.assert_array_equal(
            error.forecasts[:, 2, 0], np.full(2, series[-1, 2, 0])
        )

    def test_models_property_shape(self):
        factory = default_forecaster_factory(ForecastingConfig(model="holt"))
        bank = ObjectBank(factory, 2, 3)
        models = bank.models
        assert len(models) == 2 and all(len(m) == 3 for m in models)


class TestBankValidation:
    def test_forecast_before_fit(self):
        with pytest.raises(NotFittedError):
            SampleHoldBank(2, 1).forecast(3)

    def test_bad_fit_shape(self):
        with pytest.raises(DataError):
            SampleHoldBank(2, 1).fit(np.zeros((5, 3, 1)))

    def test_empty_series(self):
        with pytest.raises(DataError):
            SampleHoldBank(2, 1).fit(np.zeros((0, 2, 1)))

    def test_non_finite_series(self):
        tensor = np.zeros((4, 2, 1))
        tensor[1, 0, 0] = np.nan
        with pytest.raises(DataError):
            SampleHoldBank(2, 1).fit(tensor)

    def test_bad_update_shape(self):
        bank = SampleHoldBank(2, 1)
        bank.fit(np.zeros((4, 2, 1)))
        with pytest.raises(DataError):
            bank.update(np.zeros((3, 1)))

    def test_bad_horizon(self):
        bank = SampleHoldBank(2, 1)
        bank.fit(np.zeros((4, 2, 1)))
        with pytest.raises(DataError):
            bank.forecast(0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SampleHoldBank(0, 1)
        with pytest.raises(ConfigurationError):
            YuleWalkerBank(2, 1, order=0)
        with pytest.raises(ConfigurationError):
            ExponentialBank(2, 1, alpha=1.5)

    def test_yule_walker_too_short(self):
        with pytest.raises(DataError):
            YuleWalkerBank(2, 1, order=3).fit(np.zeros((4, 2, 1)))


def legacy_config(**forecasting):
    """A config mapping as written before ``ForecastingConfig.bank``
    was removed (every golden archive carries ``"bank": "auto"``)."""
    mapping = PipelineConfig(
        forecasting=ForecastingConfig(model=forecasting.pop("model"))
    ).to_dict()
    mapping["forecasting"].update(forecasting)
    return mapping


class TestResolution:
    def test_auto_picks_vectorized_bank(self):
        config = ForecastingConfig(model="sample_hold")
        bank = resolve_bank(config, num_clusters=3, dim=1)
        assert isinstance(bank, SampleHoldBank)

    def test_auto_falls_back_to_object_bank(self):
        config = ForecastingConfig(model="arima")
        bank = resolve_bank(config, num_clusters=2, dim=1)
        assert isinstance(bank, ObjectBank)

    def test_custom_factory_forces_object_bank(self):
        config = ForecastingConfig(model="sample_hold")
        bank = resolve_bank(
            config,
            num_clusters=2,
            dim=1,
            factory=lambda cluster, group: SampleHoldForecaster(),
        )
        assert isinstance(bank, ObjectBank)

    def test_expected_banks_registered(self):
        for name in ("sample_hold", "mean", "ses", "ar"):
            assert name in FORECASTER_BANKS

    def test_config_accepts_every_registered_model(self):
        for name in FORECASTERS.available() + FORECASTER_BANKS.available():
            assert ForecastingConfig(model=name).model == name

    def test_unknown_model_lists_both_registries(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ForecastingConfig(model="sample_hld")
        message = str(excinfo.value)
        assert "did you mean 'sample_hold'" in message
        assert message.split("available: ")[1].split(", ") == sorted(
            FORECASTERS.available() + FORECASTER_BANKS.available()
        )

    # Configs written before ``ForecastingConfig.bank`` was removed:
    # ``from_dict`` drops a ``bank`` that names the path the model runs
    # today and rejects any other.
    @pytest.mark.parametrize(
        "model, bank",
        [("sample_hold", "auto"), ("ar", "auto"), ("arima", "auto"),
         ("sample_hold", "sample_hold"), ("ses", "ses"),
         ("arima", "object"), ("lstm", "object")],
    )
    def test_values_naming_todays_path_load(self, model, bank):
        loaded = PipelineConfig.from_dict(
            legacy_config(model=model, bank=bank)
        )
        assert loaded == PipelineConfig(
            forecasting=ForecastingConfig(model=model)
        )
        assert "bank" not in loaded.to_dict()["forecasting"]

    def test_object_bank_for_a_banked_model_rejected(self):
        # Such a checkpoint holds ObjectBank state, which the bank the
        # model runs through today cannot restore.
        for model in ("sample_hold", "mean", "ses", "ar"):
            with pytest.raises(
                ConfigurationError, match="forecaster_factory"
            ):
                PipelineConfig.from_dict(
                    legacy_config(model=model, bank="object")
                )

    def test_bank_requiring_vectorized_path(self):
        loaded = PipelineConfig.from_dict(
            legacy_config(model="ar", bank="ar")
        )
        bank = resolve_bank(loaded.forecasting, num_clusters=2, dim=1)
        assert isinstance(bank, YuleWalkerBank)

    def test_bank_contradicting_model_rejected(self):
        with pytest.raises(ConfigurationError, match="bank='sample_hold'"):
            PipelineConfig.from_dict(
                legacy_config(model="arima", bank="sample_hold")
            )

    def test_bank_requirement_fails_without_vectorized_bank(self):
        with pytest.raises(ConfigurationError, match="bank='arima'"):
            PipelineConfig.from_dict(
                legacy_config(model="arima", bank="arima")
            )

    def test_unknown_bank_rejected_by_config(self):
        with pytest.raises(ConfigurationError, match="bank='nope'"):
            PipelineConfig.from_dict(
                legacy_config(model="sample_hold", bank="nope")
            )

    def test_bank_is_not_a_field(self):
        with pytest.raises(TypeError):
            ForecastingConfig(bank="auto")


class TestEngineUnchanged:
    """The per-series oracles behind ObjectBank give the banks' numbers."""

    @pytest.mark.parametrize("model", ["sample_hold", "mean", "ses", "ar"])
    def test_run_identical_auto_vs_object(self, model):
        from repro.api import Engine

        rng = np.random.default_rng(7)
        trace = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.02, (60, 6, 2)), axis=0), 0, 1
        )
        config = PipelineConfig(
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model=model,
                max_horizon=2,
                initial_collection=20,
                retrain_interval=20,
            ),
        )
        auto = Engine(config).run(trace)
        obj = Engine(
            config, forecaster_factory=oracle_factory(config.forecasting)
        ).run(trace)
        assert (auto.bank, obj.bank) == (model, "object")
        assert auto.rmse_by_horizon == obj.rmse_by_horizon
        assert auto.intermediate_rmse == obj.intermediate_rmse


def failing_pipeline_config(num_clusters=3):
    return PipelineConfig(
        clustering=ClusteringConfig(num_clusters=num_clusters, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=2,
            initial_collection=10,
            retrain_interval=10,
        ),
    )


def walk(steps=20, nodes=6, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.03, (steps, nodes)), axis=0), 0, 1
    )


class TestForecastFailureFallback:
    """The ReproError → hold-last-centroid branch of ``_forecast_into``."""

    def test_partial_failure_holds_failed_clusters_only(self, caplog):
        class FailsForCluster(SampleHoldForecaster):
            def _forecast(self, horizon):
                raise DataError("cluster down")

        def factory(cluster, group):
            return FailsForCluster() if cluster == 1 else SampleHoldForecaster()

        pipeline = OnlinePipeline(
            6, 1, failing_pipeline_config(), forecaster_factory=factory
        )
        trace = walk()
        with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
            for t in range(20):
                output = pipeline.step(trace[t])
        assignment = output.assignments[0]
        for h in (1, 2):
            # Failed cluster 1 holds its latest centroid at every
            # horizon; the others forecast normally (sample-and-hold of
            # the centroid series — which differs from the last
            # centroid only by the model, so just pin cluster 1).
            np.testing.assert_array_equal(
                output.centroid_forecasts[h][1], assignment.centroids[1]
            )
        messages = [r.message for r in caplog.records]
        assert any(
            "forecast failed for group 0 cluster 1" in m
            and "holding last centroid" in m
            for m in messages
        )
        # Only cluster 1 failed — no warnings about other clusters.
        assert not any("cluster 0" in m or "cluster 2" in m for m in messages)

    def test_whole_bank_failure_holds_all_centroids(self, caplog):
        class ExplodingBank(ForecasterBank):
            def _fit(self, matrix):
                pass

            def _forecast(self, horizon):
                raise ReproError("bank down")

        pipeline = OnlinePipeline(6, 1, failing_pipeline_config())
        pipeline._banks[0] = ExplodingBank(3, 1)
        trace = walk(seed=1)
        with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
            for t in range(20):
                output = pipeline.step(trace[t])
        assignment = output.assignments[0]
        for h in (1, 2):
            np.testing.assert_array_equal(
                output.centroid_forecasts[h], assignment.centroids
            )
        assert any(
            "forecast failed for group 0" in r.message
            and "holding last centroids" in r.message
            for r in caplog.records
        )

    def test_node_forecasts_use_held_centroid(self):
        class AlwaysFails(SampleHoldForecaster):
            def _forecast(self, horizon):
                raise DataError("down")

        pipeline = OnlinePipeline(
            6,
            1,
            failing_pipeline_config(),
            forecaster_factory=lambda cluster, group: AlwaysFails(),
        )
        trace = walk(seed=2)
        for t in range(20):
            output = pipeline.step(trace[t])
        # With every cluster held, node forecasts are the held centroid
        # plus the per-node offsets — finite and shaped.
        assert output.node_forecasts[1].shape == (6, 1)
        assert np.isfinite(output.node_forecasts[1]).all()
