"""Tests for the differencing and AICc statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.forecasting.stattools import (
    aicc,
    difference,
    differencing_polynomial,
    undifference_forecasts,
)


class TestDifferencingPolynomial:
    def test_d1(self):
        np.testing.assert_array_equal(
            differencing_polynomial(1, 0, 0), [1.0, -1.0]
        )

    def test_d2(self):
        np.testing.assert_array_equal(
            differencing_polynomial(2, 0, 0), [1.0, -2.0, 1.0]
        )

    def test_seasonal(self):
        poly = differencing_polynomial(0, 1, 4)
        np.testing.assert_array_equal(poly, [1, 0, 0, 0, -1])

    def test_combined(self):
        poly = differencing_polynomial(1, 1, 2)
        # (1-B)(1-B^2) = 1 - B - B^2 + B^3
        np.testing.assert_array_equal(poly, [1, -1, -1, 1])

    def test_invalid(self):
        with pytest.raises(DataError):
            differencing_polynomial(-1, 0, 0)
        with pytest.raises(DataError):
            differencing_polynomial(0, 1, 1)


class TestDifference:
    def test_d1_matches_numpy(self):
        x = np.random.default_rng(6).random(20)
        np.testing.assert_allclose(difference(x, 1), np.diff(x))

    def test_d2_matches_numpy(self):
        x = np.random.default_rng(7).random(20)
        np.testing.assert_allclose(difference(x, 2), np.diff(x, 2))

    def test_seasonal_difference(self):
        x = np.arange(12, dtype=float)
        out = difference(x, 0, 1, 4)
        np.testing.assert_allclose(out, np.full(8, 4.0))

    def test_removes_linear_trend(self):
        x = 2.0 * np.arange(30) + 5.0
        np.testing.assert_allclose(difference(x, 1), np.full(29, 2.0))

    def test_removes_seasonality(self):
        t = np.arange(60)
        x = np.sin(2 * np.pi * t / 12)
        out = difference(x, 0, 1, 12)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(DataError):
            difference(np.zeros(3), 0, 1, 4)

    def test_d0_identity(self):
        x = np.random.default_rng(8).random(10)
        np.testing.assert_array_equal(difference(x, 0), x)


class TestUndifference:
    @given(
        st.integers(0, 2),
        st.integers(0, 1),
        st.lists(st.floats(-1, 1), min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, d, seasonal_d, future):
        # Differencing a known continuation, then integrating the
        # differenced forecasts, must reproduce the continuation.
        period = 4
        rng = np.random.default_rng(9)
        history = rng.random(30)
        continuation = np.asarray(future)
        full = np.concatenate([history, continuation])
        w_full = difference(full, d, seasonal_d, period)
        lag = d + seasonal_d * period
        if lag == 0:
            w_future = continuation
        else:
            w_future = w_full[-len(continuation):] if len(continuation) else w_full[:0]
        rebuilt = undifference_forecasts(
            history, w_future, d, seasonal_d, period
        )
        np.testing.assert_allclose(rebuilt, continuation, atol=1e-9)

    def test_no_differencing_passthrough(self):
        out = undifference_forecasts(np.zeros(5), np.array([1.0, 2.0]), 0)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_short_history_rejected(self):
        with pytest.raises(DataError):
            undifference_forecasts(np.zeros(2), np.zeros(1), 0, 1, 4)


class TestAicc:
    def test_penalizes_parameters(self):
        base = aicc(10.0, 100, 2)
        richer = aicc(10.0, 100, 5)
        assert richer > base

    def test_rewards_fit(self):
        worse = aicc(20.0, 100, 2)
        better = aicc(10.0, 100, 2)
        assert better < worse

    def test_infinite_when_saturated(self):
        assert aicc(1.0, 10, 10) == float("inf")

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            aicc(-1.0, 10, 2)
        with pytest.raises(DataError):
            aicc(1.0, 0, 2)

    def test_correction_term(self):
        # AICc - AIC = 2k(k+1)/(n-k-1)
        n, k, sse = 50, 3, 5.0
        sigma2 = sse / n
        ll = -0.5 * n * (np.log(2 * np.pi * sigma2) + 1)
        aic = 2 * k - 2 * ll
        expected = aic + 2 * k * (k + 1) / (n - k - 1)
        assert aicc(sse, n, k) == pytest.approx(expected)
