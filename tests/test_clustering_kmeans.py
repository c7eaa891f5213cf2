"""Tests for the from-scratch K-means implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering.kmeans import kmeans, kmeans_plus_plus_init
from repro.exceptions import ConfigurationError, DataError


def well_separated(rng, centers, per_cluster=20, spread=0.02):
    points = []
    for c in centers:
        points.append(rng.normal(c, spread, size=(per_cluster, len(c))))
    return np.vstack(points)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        data = well_separated(rng, [[0.1], [0.5], [0.9]])
        result = kmeans(data, 3, rng=rng)
        recovered = np.sort(result.centroids[:, 0])
        np.testing.assert_allclose(recovered, [0.1, 0.5, 0.9], atol=0.02)

    def test_labels_match_nearest_centroid(self):
        rng = np.random.default_rng(1)
        data = rng.random((40, 2))
        result = kmeans(data, 4, rng=rng)
        dist = np.linalg.norm(
            data[:, None, :] - result.centroids[None, :, :], axis=2
        )
        np.testing.assert_array_equal(result.labels, np.argmin(dist, axis=1))

    def test_inertia_matches_labels(self):
        rng = np.random.default_rng(2)
        data = rng.random((30, 2))
        result = kmeans(data, 3, rng=rng)
        manual = sum(
            np.sum((data[i] - result.centroids[result.labels[i]]) ** 2)
            for i in range(30)
        )
        assert result.inertia == pytest.approx(manual)

    def test_k_equals_n(self):
        rng = np.random.default_rng(3)
        data = rng.random((6, 1))
        result = kmeans(data, 6, rng=rng)
        # Every point is its own cluster => zero inertia.
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(result.labels.tolist())) == 6

    def test_k_one(self):
        rng = np.random.default_rng(4)
        data = rng.random((20, 3))
        result = kmeans(data, 1, rng=rng)
        np.testing.assert_allclose(result.centroids[0], data.mean(axis=0))

    def test_identical_points(self):
        data = np.full((10, 2), 0.5)
        result = kmeans(data, 3, rng=np.random.default_rng(5))
        assert result.inertia == pytest.approx(0.0)
        assert result.centroids.shape == (3, 2)

    def test_1d_input_promoted(self):
        result = kmeans(np.array([0.1, 0.11, 0.9, 0.91]), 2,
                        rng=np.random.default_rng(6))
        assert result.centroids.shape == (2, 1)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ConfigurationError):
            kmeans(np.zeros((3, 1)), 4)

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            kmeans(np.zeros((3, 1)), 0)

    def test_3d_input_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((3, 2, 2)), 2)

    def test_warm_start_shape_check(self):
        with pytest.raises(ConfigurationError):
            kmeans(
                np.zeros((5, 2)), 2,
                initial_centroids=np.zeros((3, 2)),
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_finite_points_rejected(self, bad, warm):
        # Cold starts used to fail inside rng.choice with numpy's bare
        # "Probabilities contain NaN"; warm starts returned a NaN
        # centroid after max_iterations.
        data = np.random.default_rng(9).random((12, 2))
        initial = data[:3].copy() if warm else None
        data[5, 1] = bad
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DataError, match="NaN or infinite"):
            kmeans(data, 3, rng=rng, initial_centroids=initial)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_centroids_rejected(self, bad):
        data = np.random.default_rng(10).random((12, 2))
        initial = data[:3].copy()
        initial[1, 0] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            kmeans(
                data, 3, rng=np.random.default_rng(0),
                initial_centroids=initial,
            )

    def test_warm_start_converges(self):
        rng = np.random.default_rng(7)
        data = well_separated(rng, [[0.2], [0.8]])
        warm = np.array([[0.25], [0.75]])
        result = kmeans(data, 2, initial_centroids=warm, rng=rng)
        np.testing.assert_allclose(
            np.sort(result.centroids[:, 0]), [0.2, 0.8], atol=0.02
        )

    def test_deterministic_given_rng(self):
        data = np.random.default_rng(8).random((30, 2))
        r1 = kmeans(data, 3, rng=np.random.default_rng(42))
        r2 = kmeans(data, 3, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(r1.labels, r2.labels)

    @given(
        arrays(
            float, st.tuples(st.integers(5, 25), st.integers(1, 3)),
            elements=st.floats(0, 1, allow_nan=False),
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, data, k):
        k = min(k, data.shape[0])
        result = kmeans(data, k, rng=np.random.default_rng(0))
        # Every cluster id in range; no empty clusters after repair when
        # there are at least k distinct points.
        assert result.labels.min() >= 0
        assert result.labels.max() < k
        assert result.centroids.shape == (k, data.shape[1])
        assert result.inertia >= 0
        if len(np.unique(data, axis=0)) >= k:
            assert len(set(result.labels.tolist())) == k


class TestKMeansPlusPlus:
    def test_selects_k_points(self):
        rng = np.random.default_rng(0)
        data = rng.random((20, 2))
        centroids = kmeans_plus_plus_init(data, 5, rng)
        assert centroids.shape == (5, 2)

    def test_duplicate_data_does_not_crash(self):
        data = np.full((8, 1), 0.3)
        centroids = kmeans_plus_plus_init(data, 3, np.random.default_rng(0))
        assert centroids.shape == (3, 1)

    def test_spread_selection_prefers_far_points(self):
        # Two tight blobs far apart: with K=2 the two seeds should land
        # in different blobs almost surely.
        rng = np.random.default_rng(1)
        data = np.vstack([
            rng.normal(0.0, 0.001, size=(50, 1)),
            rng.normal(1.0, 0.001, size=(50, 1)),
        ])
        hits = 0
        for seed in range(20):
            seeds = kmeans_plus_plus_init(data, 2, np.random.default_rng(seed))
            if abs(seeds[0, 0] - seeds[1, 0]) > 0.5:
                hits += 1
        assert hits >= 18
