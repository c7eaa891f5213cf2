"""Tests for the dynamic cluster tracker (Sec. V-B)."""

import numpy as np
import pytest

from repro.clustering.dynamic import DynamicClusterTracker
from repro.exceptions import ConfigurationError, DataError


def two_group_slot(rng, low=0.1, high=0.9, n_per=10, spread=0.01):
    values = np.concatenate([
        rng.normal(low, spread, n_per), rng.normal(high, spread, n_per)
    ])
    return values


class TestDynamicClusterTracker:
    def test_first_step_produces_assignment(self):
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(0)
        assignment = tracker.update(two_group_slot(rng))
        assert assignment.num_clusters == 2
        assert assignment.num_nodes == 20
        assert tracker.time == 1

    def test_identity_persists_across_steps(self):
        # Cluster ids must stay attached to the same node groups even
        # though K-means ordering is random each step.
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(1)
        first = tracker.update(two_group_slot(rng))
        low_cluster = first.labels[0]
        for _ in range(10):
            assignment = tracker.update(two_group_slot(rng))
            assert assignment.labels[0] == low_cluster
            assert (assignment.labels[:10] == low_cluster).all()

    def test_centroid_series_tracks_group_means(self):
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(2)
        first = tracker.update(two_group_slot(rng, low=0.2, high=0.7))
        for _ in range(4):
            tracker.update(two_group_slot(rng, low=0.2, high=0.7))
        low_cluster = int(first.labels[0])
        series = tracker.centroid_series(low_cluster)
        assert series.shape == (5, 1)
        np.testing.assert_allclose(series[:, 0], 0.2, atol=0.02)

    def test_migration_followed(self):
        # A node that moves from the low to the high group should be
        # re-assigned, while cluster identities stay put.
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(3)
        values = two_group_slot(rng)
        a0 = tracker.update(values)
        low_cluster = int(a0.labels[0])
        high_cluster = 1 - low_cluster
        values2 = values.copy()
        values2[0] = 0.9  # node 0 migrates
        a1 = tracker.update(values2)
        assert a1.labels[0] == high_cluster
        assert (a1.labels[1:10] == low_cluster).all()

    def test_history_depth_parameter(self):
        tracker = DynamicClusterTracker(2, history_depth=3, seed=0)
        rng = np.random.default_rng(4)
        for _ in range(6):
            tracker.update(two_group_slot(rng))
        assert tracker.get_state()["labels"].shape == (3, 20)

    def test_jaccard_similarity_mode(self):
        tracker = DynamicClusterTracker(2, similarity="jaccard", seed=0)
        rng = np.random.default_rng(5)
        first = tracker.update(two_group_slot(rng))
        low = first.labels[0]
        for _ in range(5):
            assignment = tracker.update(two_group_slot(rng))
            assert assignment.labels[0] == low

    def test_k_equals_n_identity(self):
        tracker = DynamicClusterTracker(5, seed=0)
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assignment = tracker.update(values)
        np.testing.assert_array_equal(assignment.labels, np.arange(5))
        np.testing.assert_allclose(assignment.centroids[:, 0], values)

    def test_k_greater_than_n(self):
        tracker = DynamicClusterTracker(7, seed=0)
        values = np.array([0.1, 0.2, 0.3])
        assignment = tracker.update(values)
        assert assignment.num_clusters == 7
        np.testing.assert_array_equal(assignment.labels, np.arange(3))

    def test_features_override(self):
        # Clustering on features while centroids come from values.
        tracker = DynamicClusterTracker(2, seed=0)
        values = np.array([0.5, 0.5, 0.5, 0.5])
        features = np.array([[0.0], [0.0], [1.0], [1.0]])
        assignment = tracker.update(values, features=features)
        assert assignment.labels[0] == assignment.labels[1]
        assert assignment.labels[2] == assignment.labels[3]
        assert assignment.labels[0] != assignment.labels[2]
        np.testing.assert_allclose(assignment.centroids[:, 0], 0.5)

    def test_feature_row_mismatch(self):
        tracker = DynamicClusterTracker(2, seed=0)
        with pytest.raises(DataError):
            tracker.update(np.zeros(4), features=np.zeros((3, 1)))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            DynamicClusterTracker(0)
        with pytest.raises(ConfigurationError):
            DynamicClusterTracker(2, history_depth=0)

    def test_centroid_series_bad_cluster(self):
        tracker = DynamicClusterTracker(2, seed=0)
        with pytest.raises(ConfigurationError):
            tracker.centroid_series(5)

    def test_centroid_series_empty_before_updates(self):
        tracker = DynamicClusterTracker(2, seed=0)
        series = tracker.centroid_series(0)
        assert series.size == 0
        # Regression: the empty series must keep the (t, d) layout so
        # downstream code can index series[:, 0] / stack it untouched.
        assert series.ndim == 2
        assert series.shape == (0, 1)

    def test_centroid_series_empty_shape_consistent_after_update(self):
        # Once data has been seen the dimensionality is known; shapes of
        # empty and non-empty series must agree on d.
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(8)
        values = np.vstack([
            rng.normal([0.1, 0.2, 0.3], 0.01, (6, 3)),
            rng.normal([0.8, 0.9, 0.7], 0.01, (6, 3)),
        ])
        tracker.update(values)
        assert tracker.centroid_series(0).shape == (1, 3)

    def test_fleet_size_change_between_updates(self):
        # A node joining or leaving the fleet must not break re-indexing
        # (absent ids simply drop out of the Eq. 10 intersection).
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(10)
        first = tracker.update(two_group_slot(rng, n_per=10))
        low_cluster = int(first.labels[0])
        shrunk = tracker.update(two_group_slot(rng, n_per=8))
        assert shrunk.labels.shape == (16,)
        assert shrunk.labels[0] == low_cluster
        grown = tracker.update(two_group_slot(rng, n_per=12))
        assert grown.labels.shape == (24,)
        assert grown.labels[0] == low_cluster

    def test_multidimensional_values(self):
        tracker = DynamicClusterTracker(2, seed=0)
        rng = np.random.default_rng(6)
        values = np.vstack([
            rng.normal([0.1, 0.2], 0.01, (8, 2)),
            rng.normal([0.8, 0.9], 0.01, (8, 2)),
        ])
        assignment = tracker.update(values)
        assert assignment.centroids.shape == (2, 2)

    def test_warm_start_mode(self):
        tracker = DynamicClusterTracker(2, seed=0, warm_start=True)
        rng = np.random.default_rng(7)
        for _ in range(4):
            assignment = tracker.update(two_group_slot(rng))
        assert assignment.num_clusters == 2
