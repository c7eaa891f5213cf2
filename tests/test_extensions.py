"""Tests for extensions: deadband policy, error decomposition, ARIMA
prediction intervals, and the deadband ablation."""

import numpy as np
import pytest

from collection_oracle import DeadbandTransmissionPolicy
from repro.analysis.decomposition import decompose_error
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.forecasting.arima import ArimaModel, ArimaOrder
from repro.simulation.collection import collect


class TestDeadbandPolicy:
    def test_transmits_beyond_delta(self):
        policy = DeadbandTransmissionPolicy(delta=0.1)
        assert policy.decide(np.array([0.5]), np.array([0.3]))

    def test_silent_within_delta(self):
        policy = DeadbandTransmissionPolicy(delta=0.1)
        assert not policy.decide(np.array([0.35]), np.array([0.3]))

    def test_boundary_not_transmitted(self):
        # Exactly at the deadband edge (binary-exact values): stay silent.
        policy = DeadbandTransmissionPolicy(delta=0.5)
        assert not policy.decide(np.array([0.75]), np.array([0.25]))

    def test_multidimensional_rms(self):
        policy = DeadbandTransmissionPolicy(delta=0.1)
        # mean squared deviation = (0.04 + 0) / 2 = 0.02 > 0.01
        assert policy.decide(np.array([0.5, 0.3]), np.array([0.3, 0.3]))

    def test_frequency_depends_on_volatility(self):
        # The deadband's defining (bad) property: the same δ yields very
        # different frequencies on calm vs volatile data.
        rng = np.random.default_rng(0)
        calm = np.clip(0.5 + rng.normal(0, 0.01, (500, 5)), 0, 1)
        wild = np.clip(0.5 + rng.normal(0, 0.2, (500, 5)), 0, 1)
        config = TransmissionConfig(deadband_delta=0.05)
        f_calm = collect(calm, config, backend="deadband").empirical_frequency
        f_wild = collect(wild, config, backend="deadband").empirical_frequency
        assert f_wild > 3 * f_calm

    def test_vectorized_matches_policy(self):
        rng = np.random.default_rng(1)
        trace = rng.random((80, 4))
        vec = collect(
            trace, TransmissionConfig(deadband_delta=0.2), backend="deadband"
        )
        # Replay via the per-node policy (with forced first send).
        for node in range(4):
            policy = DeadbandTransmissionPolicy(delta=0.2)
            stored = trace[0, node]
            decisions = [1]
            for t in range(1, 80):
                sent = policy.decide(
                    np.array([trace[t, node]]), np.array([stored])
                )
                if sent:
                    stored = trace[t, node]
                decisions.append(int(sent))
            np.testing.assert_array_equal(vec.decisions[:, node], decisions)

    def test_simulate_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            TransmissionConfig(deadband_delta=-1.0)


class TestDeadbandAblation:
    def test_adaptive_hits_budget_deadband_does_not(self):
        from repro.experiments import run_ablation_deadband

        result = run_ablation_deadband(num_nodes=25, num_steps=300)
        assert result.max_adaptive_miss() < 0.05
        assert result.max_deadband_miss() > 0.15
        # δ was calibrated on the calibration dataset, so that one hits.
        cal = result.calibration_dataset
        assert result.deadband_frequency[cal] == pytest.approx(
            result.target, abs=0.02
        )


class TestErrorDecomposition:
    def _config(self, budget=0.3):
        return PipelineConfig(
            transmission=TransmissionConfig(budget=budget),
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model="sample_hold", max_horizon=3,
                initial_collection=25, retrain_interval=25,
            ),
        )

    def _trace(self):
        rng = np.random.default_rng(0)
        base = np.where(np.arange(8) < 4, 0.25, 0.7)
        return np.clip(
            base[None, :] + rng.normal(0, 0.03, (90, 8)), 0, 1
        )

    def test_components_ordered(self):
        decomposition = decompose_error(self._trace(), self._config(), 1)
        # Idealizing the collection can only help (statistically).
        assert decomposition.without_staleness <= decomposition.total + 0.02
        assert 0.0 <= decomposition.staleness_share <= 1.0

    def test_perfect_collection_kills_staleness_floor(self):
        decomposition = decompose_error(
            self._trace(), self._config(budget=1.0), 1
        )
        assert decomposition.staleness_only == pytest.approx(0.0, abs=1e-12)
        assert decomposition.staleness_share == pytest.approx(0.0, abs=0.05)

    def test_horizon_validation(self):
        with pytest.raises(DataError):
            decompose_error(self._trace(), self._config(), 9)

    def test_format_contains_fields(self):
        decomposition = decompose_error(self._trace(), self._config(), 1)
        text = decomposition.format()
        assert "total RMSE" in text
        assert "staleness" in text


class TestArimaIntervals:
    def _fit_ar1(self, phi=0.7, sigma=0.1, n=2000, seed=0):
        rng = np.random.default_rng(seed)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.normal(0, sigma)
        model = ArimaModel(ArimaOrder(p=1))
        model.fit(x)
        return model, phi, sigma

    def test_psi_weights_of_ar1(self):
        model, phi, _ = self._fit_ar1()
        psi = model.psi_weights(5)
        expected = model.params[0] ** np.arange(5)
        np.testing.assert_allclose(psi, expected, rtol=1e-6)

    def test_interval_widens_with_horizon(self):
        model, _, _ = self._fit_ar1()
        point, lower, upper = model.forecast_interval(10)
        widths = upper - lower
        assert (np.diff(widths) >= -1e-12).all()
        np.testing.assert_allclose(point, (lower + upper) / 2)

    def test_one_step_width_matches_sigma(self):
        model, _, sigma = self._fit_ar1()
        _, lower, upper = model.forecast_interval(1, confidence=0.95)
        width = float(upper[0] - lower[0])
        assert width == pytest.approx(2 * 1.96 * sigma, rel=0.1)

    def test_empirical_coverage(self):
        # Check the 90% interval covers about 90% of realized values.
        rng = np.random.default_rng(1)
        phi, sigma = 0.6, 0.1
        x = np.zeros(3000)
        for t in range(1, x.size):
            x[t] = phi * x[t - 1] + rng.normal(0, sigma)
        model = ArimaModel(ArimaOrder(p=1)).fit(x[:2000])
        hits = 0
        total = 0
        for t in range(2000, 2995):
            model_forecasts = model.forecast_interval(1, confidence=0.9)
            _, lower, upper = model_forecasts
            if lower[0] <= x[t] <= upper[0]:
                hits += 1
            total += 1
            model.update(float(x[t]))
        assert hits / total == pytest.approx(0.9, abs=0.05)

    def test_random_walk_interval_grows_like_sqrt_h(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.normal(0, 0.1, 1000))
        model = ArimaModel(ArimaOrder(p=0, d=1, q=0)).fit(x)
        _, lower, upper = model.forecast_interval(16)
        widths = upper - lower
        assert widths[15] / widths[3] == pytest.approx(2.0, rel=0.1)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            ArimaModel().psi_weights(3)

    def test_invalid_confidence(self):
        model, _, _ = self._fit_ar1()
        with pytest.raises(DataError):
            model.forecast_interval(3, confidence=1.5)
