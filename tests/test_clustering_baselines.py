"""Tests for static, minimum-distance, and windowed clustering."""

import numpy as np
import pytest

from repro.clustering.minimum_distance import MinimumDistanceClustering
from repro.clustering.static import StaticClustering
from repro.clustering.windowing import WindowedFeatureBuilder
from repro.exceptions import ConfigurationError, DataError, NotFittedError


class TestStaticClustering:
    def _trace(self):
        rng = np.random.default_rng(0)
        t = np.arange(50)
        low = 0.2 + 0.01 * rng.standard_normal((50, 10))
        high = 0.8 + 0.01 * rng.standard_normal((50, 10))
        return np.concatenate([low, high], axis=1)

    def test_fixed_partition(self):
        trace = self._trace()
        static = StaticClustering(2, seed=0).fit(trace)
        labels = static.labels
        assert (labels[:10] == labels[0]).all()
        assert (labels[10:] == labels[10]).all()
        assert labels[0] != labels[10]

    def test_assign_uses_current_values(self):
        trace = self._trace()
        static = StaticClustering(2, seed=0).fit(trace)
        values = trace[7]
        assignment = static.assign(values, time=7)
        assert assignment.time == 7
        low_cluster = int(static.labels[0])
        assert assignment.centroids[low_cluster, 0] == pytest.approx(
            values[:10].mean()
        )

    def test_labels_before_fit_raise(self):
        with pytest.raises(NotFittedError):
            StaticClustering(2).labels

    def test_assign_wrong_node_count(self):
        static = StaticClustering(2, seed=0).fit(self._trace())
        with pytest.raises(DataError):
            static.assign(np.zeros(5))

    def test_3d_trace_accepted(self):
        trace = self._trace()[:, :, np.newaxis]
        static = StaticClustering(2, seed=0).fit(trace)
        assert static.labels.shape == (20,)


class TestMinimumDistanceClustering:
    def test_representatives_are_centroids(self):
        clusterer = MinimumDistanceClustering(3, seed=0)
        values = np.random.default_rng(0).random(12)
        assignment = clusterer.update(values)
        # Each centroid equals the measurement of some node.
        for j in range(3):
            assert any(
                np.isclose(assignment.centroids[j, 0], values[i])
                for i in range(12)
            )

    def test_nodes_map_to_nearest_representative(self):
        clusterer = MinimumDistanceClustering(2, seed=1)
        values = np.array([0.0, 0.01, 0.99, 1.0, 0.02, 0.98])
        assignment = clusterer.update(values)
        centers = assignment.centroids[:, 0]
        for i, v in enumerate(values):
            chosen = assignment.labels[i]
            dist_chosen = abs(v - centers[chosen])
            assert all(
                dist_chosen <= abs(v - centers[j]) + 1e-12 for j in range(2)
            )

    def test_redraw_every_step(self):
        clusterer = MinimumDistanceClustering(2, seed=2)
        values = np.random.default_rng(3).random(30)
        a0 = clusterer.update(values)
        seen_different = False
        for _ in range(10):
            a1 = clusterer.update(values)
            if not np.allclose(a0.centroids, a1.centroids):
                seen_different = True
        assert seen_different

    def test_k_greater_than_n(self):
        clusterer = MinimumDistanceClustering(5, seed=0)
        with pytest.raises(ConfigurationError):
            clusterer.update(np.zeros(3))

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            MinimumDistanceClustering(0)

    def test_time_increments(self):
        clusterer = MinimumDistanceClustering(2, seed=0)
        values = np.random.default_rng(0).random(5)
        assert clusterer.update(values).time == 0
        assert clusterer.update(values).time == 1


class TestWindowing:
    def test_window_one_is_identity(self):
        builder = WindowedFeatureBuilder(1)
        values = np.random.default_rng(0).random((4, 2))
        out = builder.push(values)
        np.testing.assert_array_equal(out, values)

    def test_window_padding_before_full(self):
        builder = WindowedFeatureBuilder(3)
        v0 = np.array([[1.0], [2.0]])
        out = builder.push(v0)
        # Oldest slot repeated until the buffer fills.
        np.testing.assert_array_equal(out, [[1, 1, 1], [2, 2, 2]])

    def test_window_ordering_recent_last(self):
        builder = WindowedFeatureBuilder(2)
        builder.push(np.array([[1.0]]))
        out = builder.push(np.array([[2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_rolling_eviction(self):
        builder = WindowedFeatureBuilder(2)
        for v in (1.0, 2.0, 3.0):
            out = builder.push(np.array([[v]]))
        np.testing.assert_array_equal(out, [[2.0, 3.0]])

    def test_reset(self):
        builder = WindowedFeatureBuilder(2)
        builder.push(np.array([[1.0]]))
        builder.reset()
        out = builder.push(np.array([[5.0]]))
        np.testing.assert_array_equal(out, [[5.0, 5.0]])

    def test_shape_change_rejected(self):
        builder = WindowedFeatureBuilder(2)
        builder.push(np.zeros((3, 1)))
        with pytest.raises(DataError):
            builder.push(np.zeros((4, 1)))

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            WindowedFeatureBuilder(0)
