"""Tests for exponential-smoothing forecasters and Yule–Walker AR.

SES and AR run through their banks in the engine; their per-series
forms live in ``forecaster_oracle``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize

from forecaster_oracle import (
    SimpleExponentialSmoothing,
    YuleWalkerAR,
    fit_yule_walker,
)
from repro.exceptions import ConfigurationError, DataError
from repro.forecasting import exponential
from repro.forecasting.exponential import (
    HoltLinear,
    HoltWinters,
    fit_ses_alpha,
    ses_sse,
)


class TestSimpleExponentialSmoothing:
    def test_constant_series(self):
        model = SimpleExponentialSmoothing().fit(np.full(50, 0.4))
        np.testing.assert_allclose(model.forecast(3), 0.4, atol=1e-9)

    def test_alpha_one_is_sample_hold(self):
        series = np.random.default_rng(0).random(30)
        model = SimpleExponentialSmoothing(alpha=1.0).fit(series)
        assert model.forecast(2)[0] == pytest.approx(series[-1])

    def test_alpha_fitted_for_noisy_level(self):
        # Pure noise around a level: optimal alpha should be small.
        rng = np.random.default_rng(1)
        series = 0.5 + rng.normal(0, 0.1, 400)
        model = SimpleExponentialSmoothing().fit(series)
        assert model.alpha < 0.3
        assert model.forecast(1)[0] == pytest.approx(0.5, abs=0.05)

    def test_alpha_fitted_for_random_walk(self):
        rng = np.random.default_rng(2)
        series = np.cumsum(rng.normal(0, 0.1, 400))
        model = SimpleExponentialSmoothing().fit(series)
        assert model.alpha > 0.7

    def test_update_moves_level(self):
        model = SimpleExponentialSmoothing(alpha=0.5).fit([0.0, 0.0])
        model.update(1.0)
        assert model.forecast(1)[0] == pytest.approx(0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            SimpleExponentialSmoothing(alpha=0.0)


def scipy_ses_alpha(series):
    """The oracle: the SES weight as scipy's bounded minimizer finds it."""
    result = optimize.minimize_scalar(
        lambda a: exponential.ses_sse(a, series),
        bounds=(1e-4, 1.0),
        method="bounded",
    )
    return float(result.x)


def evaluations(fit, series):
    """Every alpha at which ``fit`` evaluates the SES objective on
    ``series``, as (type, bits), and the bits of the alpha it returns."""
    seen = []

    def recording(alpha, values):
        seen.append((type(alpha), float(alpha).hex()))
        return ses_sse(alpha, values)

    with mock.patch.object(exponential, "ses_sse", recording):
        alpha = fit(series)
    return seen, alpha.hex()


def spiked(value):
    """A 10-slot random series with ``value`` in its middle."""
    def make(rng):
        series = rng.random(10)
        series[5] = value
        return series
    return make


#: (name, series(rng)) of the fixed oracle cases.
ORACLE_CASES = [
    ("constant", lambda rng: np.full(20, 0.4)),
    ("zeros", lambda rng: np.zeros(10)),
    ("quantised", lambda rng: np.round(rng.random(50), 1)),
    ("tiny_amplitude", lambda rng: 0.5 + 1e-9 * rng.random(20)),
    ("below_1e-9", lambda rng: 1e-9 * rng.random(20)),
    ("length_3", lambda rng: rng.random(3)),
    ("length_4", lambda rng: rng.random(4)),
    ("random_walk_288", lambda rng: 0.5 + np.cumsum(
        rng.normal(0, 0.02, 288)
    )),
    ("float32_walk", lambda rng: (0.5 + np.cumsum(
        rng.normal(0, 0.02, 40)
    )).astype(np.float32)),
    ("staircase", lambda rng: 1e15 + rng.integers(0, 4, 12)),
    ("nan", spiked(np.nan)),
    ("inf", spiked(np.inf)),
]


class TestSesAlphaOracle:
    """``fit_ses_alpha`` runs a port of scipy's bounded Brent method: it
    must evaluate the objective at scipy's alphas, in scipy's order,
    and return scipy's alpha, bit for bit."""

    @pytest.mark.parametrize(
        "make", [case for _, case in ORACLE_CASES],
        ids=[name for name, _ in ORACLE_CASES],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fixed_cases_match_scipy(self, make):
        series = make(np.random.default_rng(0))
        ours = evaluations(fit_ses_alpha, series)
        assert ours == evaluations(scipy_ses_alpha, series)
        assert len(ours[0]) > 2

    @given(
        st.sampled_from([np.float64, np.float32]).flatmap(
            lambda dtype: arrays(
                dtype, st.integers(3, 60),
                elements=st.floats(
                    -10.0, 10.0, allow_nan=False, width=32,
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_series_match_scipy(self, series):
        assert evaluations(fit_ses_alpha, series) == evaluations(
            scipy_ses_alpha, series
        )

    @given(st.integers(0, 2**32 - 1), st.integers(3, 120))
    @settings(max_examples=40, deadline=None)
    def test_random_walks_match_scipy(self, seed, size):
        rng = np.random.default_rng(seed)
        series = 0.5 + np.cumsum(rng.normal(0, 0.05, size))
        assert evaluations(fit_ses_alpha, series) == evaluations(
            scipy_ses_alpha, series
        )

    @given(st.integers(0, 2**32 - 1), st.integers(3, 20))
    @settings(max_examples=60, deadline=None)
    def test_staircase_objectives_match_scipy(self, seed, size):
        # Noise at the scale of the level's rounding error makes the
        # SSE a staircase in alpha: exact ties between evaluations take
        # the minimizer's tie-breaking branches.
        rng = np.random.default_rng(seed)
        series = 1e8 + 1e-7 * rng.random(size)
        assert evaluations(fit_ses_alpha, series) == evaluations(
            scipy_ses_alpha, series
        )


class TestHoltLinear:
    def test_extrapolates_trend(self):
        series = 0.01 * np.arange(100) + 0.2
        model = HoltLinear(damping=1.0).fit(series)
        forecast = model.forecast(5)
        expected = series[-1] + 0.01 * np.arange(1, 6)
        np.testing.assert_allclose(forecast, expected, atol=0.01)

    def test_damping_flattens_long_horizon(self):
        series = 0.01 * np.arange(100) + 0.2
        damped = HoltLinear(damping=0.8).fit(series).forecast(50)
        undamped = HoltLinear(damping=1.0).fit(series).forecast(50)
        assert damped[-1] < undamped[-1]

    def test_update_tracks_level_shift(self):
        series = np.full(60, 0.3)
        model = HoltLinear().fit(series)
        for _ in range(30):
            model.update(0.8)
        assert model.forecast(1)[0] == pytest.approx(0.8, abs=0.1)

    def test_too_short(self):
        with pytest.raises(DataError):
            HoltLinear().fit([0.5])

    def test_invalid_damping(self):
        with pytest.raises(ConfigurationError):
            HoltLinear(damping=0.0)


class TestHoltWinters:
    def _seasonal_series(self, periods=12, cycles=20, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(periods * cycles)
        return (
            0.5
            + 0.2 * np.sin(2 * np.pi * t / periods)
            + rng.normal(0, noise, t.size)
        )

    def test_learns_seasonal_pattern(self):
        series = self._seasonal_series()
        model = HoltWinters(period=12).fit(series)
        forecast = model.forecast(12)
        t_future = np.arange(series.size, series.size + 12)
        expected = 0.5 + 0.2 * np.sin(2 * np.pi * t_future / 12)
        np.testing.assert_allclose(forecast, expected, atol=0.03)

    def test_noisy_seasonal_beats_sample_hold(self):
        series = self._seasonal_series(noise=0.02, seed=3)
        model = HoltWinters(period=12).fit(series[:-12])
        forecast = model.forecast(12)
        hold = np.full(12, series[-13])
        truth = series[-12:]
        assert np.abs(forecast - truth).mean() < np.abs(hold - truth).mean()

    def test_update_advances_season_index(self):
        series = self._seasonal_series()
        model = HoltWinters(period=12).fit(series)
        before = model._season_index
        model.update(float(series[-1]))
        assert model._season_index == (before + 1) % 12

    def test_requires_two_seasons(self):
        with pytest.raises(DataError):
            HoltWinters(period=12).fit(np.zeros(20))

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            HoltWinters(period=1)


class TestYuleWalker:
    def _ar_series(self, coeffs, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        x = np.zeros(n)
        p = len(coeffs)
        for t in range(p, n):
            x[t] = sum(coeffs[i] * x[t - 1 - i] for i in range(p))
            x[t] += rng.normal(0, 0.1)
        return x

    def test_recovers_ar1(self):
        series = self._ar_series([0.7])
        phi = fit_yule_walker(series, 1)
        assert phi[0] == pytest.approx(0.7, abs=0.03)

    def test_recovers_ar2(self):
        series = self._ar_series([0.5, 0.3])
        phi = fit_yule_walker(series, 2)
        assert phi[0] == pytest.approx(0.5, abs=0.05)
        assert phi[1] == pytest.approx(0.3, abs=0.05)

    def test_constant_series_zero_coefficients(self):
        phi = fit_yule_walker(np.full(100, 0.5), 2)
        np.testing.assert_allclose(phi, 0.0)

    def test_forecaster_decays_to_mean(self):
        series = self._ar_series([0.8]) + 0.5
        model = YuleWalkerAR(order=1).fit(series)
        forecast = model.forecast(200)
        assert forecast[-1] == pytest.approx(series.mean(), abs=0.05)

    def test_forecaster_one_step(self):
        series = self._ar_series([0.7])
        model = YuleWalkerAR(order=1).fit(series)
        expected = model.mean + model.coefficients[0] * (
            series[-1] - model.mean
        )
        assert model.forecast(1)[0] == pytest.approx(expected)

    def test_update_shifts_forecast(self):
        series = self._ar_series([0.9])
        model = YuleWalkerAR(order=1).fit(series)
        f1 = model.forecast(1)[0]
        model.update(series[-1] + 1.0)
        assert model.forecast(1)[0] > f1

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            YuleWalkerAR(order=0)
        with pytest.raises(ConfigurationError):
            fit_yule_walker(np.zeros(50), 0)

    def test_series_too_short(self):
        with pytest.raises(DataError):
            fit_yule_walker(np.zeros(3), 3)


class TestPipelineIntegrationOfNewModels:
    @pytest.mark.parametrize("model", ["ses", "holt", "ar"])
    def test_model_runs_in_pipeline(self, model):
        from repro.core.config import (
            ClusteringConfig,
            ForecastingConfig,
            PipelineConfig,
        )
        from repro.api import Engine

        rng = np.random.default_rng(4)
        trace = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.01, (80, 6)), axis=0), 0, 1
        )
        config = PipelineConfig(
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model=model, max_horizon=2,
                initial_collection=30, retrain_interval=30,
            ),
        )
        result = Engine(config).run(trace)
        assert result.rmse_by_horizon[1] < 0.2

    def test_holt_winters_runs_in_pipeline(self):
        from repro.core.config import (
            ClusteringConfig,
            ForecastingConfig,
            PipelineConfig,
        )
        from repro.api import Engine

        t = np.arange(120)
        base = 0.5 + 0.2 * np.sin(2 * np.pi * t / 12)
        rng = np.random.default_rng(5)
        trace = np.clip(
            base[:, None] + rng.normal(0, 0.02, (120, 6)), 0, 1
        )
        config = PipelineConfig(
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model="holt_winters", hw_period=12, max_horizon=2,
                initial_collection=40, retrain_interval=40,
            ),
        )
        result = Engine(config).run(trace)
        assert result.rmse_by_horizon[1] < 0.15
