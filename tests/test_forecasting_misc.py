"""Tests for sample-and-hold, membership forecasting, and offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forecaster_oracle import MeanForecaster
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import alpha_clip_batch, estimate_offsets
from repro.forecasting.sample_hold import SampleHoldForecaster


class TestSampleHold:
    def test_holds_last_value(self):
        model = SampleHoldForecaster().fit([0.1, 0.5, 0.7])
        np.testing.assert_array_equal(model.forecast(3), [0.7, 0.7, 0.7])

    def test_update_changes_forecast(self):
        model = SampleHoldForecaster().fit([0.1])
        model.update(0.9)
        assert model.forecast(1)[0] == 0.9

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SampleHoldForecaster().forecast(1)

    def test_bad_horizon(self):
        model = SampleHoldForecaster().fit([0.5])
        with pytest.raises(DataError):
            model.forecast(0)

    def test_rejects_nan_update(self):
        model = SampleHoldForecaster().fit([0.5])
        with pytest.raises(DataError):
            model.update(float("nan"))

    def test_rejects_empty_fit(self):
        with pytest.raises(DataError):
            SampleHoldForecaster().fit([])


class TestMeanForecaster:
    def test_predicts_mean(self):
        model = MeanForecaster().fit([0.0, 1.0])
        assert model.forecast(2)[0] == pytest.approx(0.5)

    def test_update_adjusts_mean(self):
        model = MeanForecaster().fit([0.0, 1.0])
        model.update(2.0)
        assert model.forecast(1)[0] == pytest.approx(1.0)


class TestForecastMembership:
    def test_majority_vote(self):
        history = [
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([1, 1]),
        ]
        out = forecast_membership(history, lookback=2)
        np.testing.assert_array_equal(out, [0, 1])

    def test_window_limits_lookback(self):
        history = [np.array([0])] * 5 + [np.array([1])] * 3
        # With lookback 2 (window of 3), cluster 1 dominates.
        out = forecast_membership(history, lookback=2)
        assert out[0] == 1
        # With lookback 7 (window of 8), cluster 0 dominates (5 vs 3).
        out = forecast_membership(history, lookback=7)
        assert out[0] == 0

    def test_tie_breaks_to_most_recent(self):
        history = [np.array([0]), np.array([1])]
        out = forecast_membership(history, lookback=1)
        assert out[0] == 1

    def test_short_history_ok(self):
        out = forecast_membership([np.array([2, 0])], lookback=5)
        np.testing.assert_array_equal(out, [2, 0])

    def test_empty_history_raises(self):
        with pytest.raises(DataError):
            forecast_membership([], 1)

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(DataError):
            forecast_membership([np.array([0]), np.array([0, 1])], 1)

    def test_negative_lookback(self):
        with pytest.raises(ConfigurationError):
            forecast_membership([np.array([0])], -1)

    @pytest.mark.parametrize("num_clusters", [2, 3, 256])
    @pytest.mark.parametrize("stacked", [True, False])
    def test_uint8_window_votes_as_int64(self, num_clusters, stacked):
        """The pipeline's uint8 label windows vote as int64 ones do;
        the result keeps the window's dtype."""
        rng = np.random.default_rng(num_clusters)
        wide = rng.integers(0, num_clusters, size=(6, 500))
        narrow = wide.astype(np.uint8)
        if not stacked:
            wide, narrow = list(wide), list(narrow)
        for lookback in (0, 2, 5):
            expected = forecast_membership(wide, lookback)
            out = forecast_membership(narrow, lookback)
            np.testing.assert_array_equal(out, expected)
            assert expected.dtype == np.int64
            assert out.dtype == np.uint8

    @given(
        st.lists(
            arrays(int, 5, elements=st.integers(0, 2)),
            min_size=1, max_size=8,
        ),
        st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_forecast_is_observed_label(self, history, lookback):
        out = forecast_membership(history, lookback)
        window = np.stack(history[-(lookback + 1):])
        for i in range(5):
            assert out[i] in window[:, i]


class TestAlphaClip:
    def test_alpha_one_when_in_cluster(self):
        centroids = np.array([[0.0], [1.0]])
        # 0.2 is closest to centroid 0.
        assert alpha_clip_batch(np.array([[0.2]]), centroids, [0])[0] == 1.0

    def test_alpha_one_on_centroid(self):
        centroids = np.array([[0.0], [1.0]])
        assert alpha_clip_batch(np.array([[0.0]]), centroids, [0])[0] == 1.0

    def test_clips_to_boundary(self):
        centroids = np.array([[0.0], [1.0]])
        # z = 0.8 belongs to cluster 1; clipped toward cluster 0 the
        # scaled point must stay at or inside the midpoint 0.5:
        # alpha = 0.5 / 0.8 = 0.625.
        alpha = alpha_clip_batch(np.array([[0.8]]), centroids, [0])[0]
        assert alpha == pytest.approx(0.5 / 0.8)

    def test_multidimensional(self):
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        alpha = alpha_clip_batch(np.array([[0.8, 0.0]]), centroids, [0])[0]
        assert alpha == pytest.approx(0.625)

    def test_orthogonal_direction_unclipped(self):
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        # Moving along y never approaches cluster 1.
        alpha = alpha_clip_batch(np.array([[0.0, 5.0]]), centroids, [0])[0]
        assert alpha == 1.0

    def test_invalid_cluster(self):
        with pytest.raises(ConfigurationError):
            alpha_clip_batch(np.array([[0.5]]), np.array([[0.0]]), [2])[0]

    @given(
        st.floats(-2, 2), st.integers(0, 1)
    )
    @settings(max_examples=50, deadline=None)
    def test_clipped_point_stays_in_cluster(self, z, cluster):
        centroids = np.array([[0.0], [1.0]])
        alpha = alpha_clip_batch(np.array([[z]]), centroids, [cluster])[0]
        assert 0 < alpha <= 1.0
        point = centroids[cluster, 0] + alpha * (z - centroids[cluster, 0])
        own = abs(point - centroids[cluster, 0])
        other = abs(point - centroids[1 - cluster, 0])
        assert own <= other + 1e-9


class TestEstimateOffsets:
    def test_single_step_offset(self):
        stored = [np.array([[0.3], [0.9]])]
        cents = [np.array([[0.2], [0.8]])]
        memberships = np.array([0, 1])
        offsets = estimate_offsets(stored, cents, memberships, lookback=0)
        np.testing.assert_allclose(offsets[:, 0], [0.1, 0.1], atol=1e-12)

    def test_eq12_averages_over_window(self):
        stored = [np.array([[0.3]]), np.array([[0.25]])]
        cents = [np.array([[0.2]]), np.array([[0.2]])]
        memberships = np.array([0])
        offsets = estimate_offsets(stored, cents, memberships, lookback=1)
        assert offsets[0, 0] == pytest.approx((0.1 + 0.05) / 2)

    def test_window_limited_by_history(self):
        stored = [np.array([[0.4]])]
        cents = [np.array([[0.2]])]
        offsets = estimate_offsets(stored, cents, np.array([0]), lookback=10)
        assert offsets[0, 0] == pytest.approx(0.2)

    def test_alpha_clipping_applied(self):
        # Node's value sits in the other cluster: the offset must be
        # scaled down so centroid+offset stays in the target cluster.
        stored = [np.array([[0.8], [0.1]])]
        cents = [np.array([[0.0], [1.0]])]
        memberships = np.array([0, 1])
        offsets = estimate_offsets(stored, cents, memberships, lookback=0)
        assert offsets[0, 0] == pytest.approx(0.5)  # clipped from 0.8
        # reconstructed value stays on node 0's target side
        assert 0.0 + offsets[0, 0] <= 0.5 + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            estimate_offsets(
                [np.zeros((2, 1))], [], np.zeros(2, dtype=int), 0
            )

    def test_membership_shape_check(self):
        with pytest.raises(DataError):
            estimate_offsets(
                [np.zeros((2, 1))],
                [np.zeros((1, 1))],
                np.zeros(3, dtype=int),
                0,
            )
