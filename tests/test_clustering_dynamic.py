"""Tests for the dynamic cluster tracker (Sec. V-B)."""

import numpy as np
import pytest

from repro.checkpoint import state_equal
from repro.clustering.dynamic import DynamicClusterTracker
from repro.core.ring import SlotSeries
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


def drifting_slots(steps, nodes=12, seed=0):
    """Three drifting node groups, one ``(N,)`` slot per row."""
    rng = np.random.default_rng(seed)
    groups = np.arange(nodes) % 3
    centres = np.array([0.2, 0.5, 0.8]) + np.cumsum(
        rng.normal(0, 0.01, (steps, 3)), axis=0
    )
    return centres[:, groups] + rng.normal(0, 0.02, (steps, nodes))


def assert_same_tracker_state(a, b):
    state_a, state_b = a.get_state(), b.get_state()
    assert state_equal(state_a, state_b)
    assert state_a["labels"].tobytes() == state_b["labels"].tobytes()
    assert state_a["centroids"].tobytes() == state_b["centroids"].tobytes()


#: Restore points one slot before, at and after the first two doublings
#: of the centroid series' buffer.
CAPACITY_CUTS = tuple(
    SlotSeries.INITIAL_CAPACITY * scale + step
    for scale in (1, 2) for step in (-1, 0, 1)
)


class TestCentroidSeries:
    """The centroid series is one growing array; copies leave it."""

    def test_outputs_are_copies_of_the_series(self):
        slots = drifting_slots(21)
        tracker = DynamicClusterTracker(3, history_depth=2, seed=0,
                                        warm_start=True)
        twin = DynamicClusterTracker(3, history_depth=2, seed=0,
                                     warm_start=True)
        for values in slots[:20]:
            tracker.update(values)
            twin.update(values)
        outputs = [
            tracker.get_state()["centroids"],
            tracker.centroid_tensor(),
            tracker.centroid_series(1),
        ]
        for out in outputs:
            assert out.flags.c_contiguous and out.flags.writeable
            out[...] = -1.0
        assert_same_tracker_state(tracker, twin)
        ours, theirs = tracker.update(slots[20]), twin.update(slots[20])
        assert ours.labels.tobytes() == theirs.labels.tobytes()
        assert ours.centroids.tobytes() == theirs.centroids.tobytes()
        assert_same_tracker_state(tracker, twin)

    def test_series_matches_stacked_assignments(self):
        tracker = DynamicClusterTracker(3, seed=0)
        assignments = [
            tracker.update(values) for values in drifting_slots(40)
        ]
        stacked = np.stack([a.centroids for a in assignments])
        assert tracker.centroid_tensor().tobytes() == stacked.tobytes()
        assert tracker.get_state()["centroids"].tobytes() == (
            stacked.tobytes()
        )
        for j in range(3):
            assert tracker.centroid_series(j).tobytes() == (
                np.ascontiguousarray(stacked[:, j]).tobytes()
            )

    def test_recent_centroids_is_a_read_only_tail(self):
        tracker = DynamicClusterTracker(3, seed=0)
        assert tracker.recent_centroids(4).shape == (0, 3, 1)
        for values in drifting_slots(6):
            tracker.update(values)
        tensor = tracker.centroid_tensor()
        np.testing.assert_array_equal(tracker.recent_centroids(4), tensor[-4:])
        np.testing.assert_array_equal(tracker.recent_centroids(10), tensor)
        assert tracker.recent_centroids(0).shape == (0, 3, 1)
        with pytest.raises(ValueError):
            tracker.recent_centroids(2)[-1] = 0.0

    def test_row_of_another_shape_raises_at_append(self):
        tracker = DynamicClusterTracker(2, seed=0)
        tracker.update(np.linspace(0, 1, 8))
        with pytest.raises(DataError, match="slot shape"):
            tracker.update(np.linspace(0, 1, 16).reshape(8, 2))
        state = tracker.get_state()
        assert state["time"] == 1
        assert state["centroids"].shape == (1, 2, 1)
        assert state["labels"].shape == (1, 8)

    @pytest.mark.parametrize("cut", CAPACITY_CUTS)
    def test_restore_at_capacity_boundaries(self, cut):
        slots = drifting_slots(cut + 40, seed=cut)

        def tracker(seed=0):
            return DynamicClusterTracker(3, history_depth=2, seed=seed,
                                         warm_start=True)

        uninterrupted, interrupted = tracker(), tracker()
        expected = [uninterrupted.update(values) for values in slots]
        for values in slots[:cut]:
            interrupted.update(values)
        restored = tracker(seed=99)
        restored.set_state(interrupted.get_state())
        assert len(restored.centroid_tensor()) == cut
        for values, want in zip(slots[cut:], expected[cut:]):
            got = restored.update(values)
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.centroids.tobytes() == want.centroids.tobytes()
        assert_same_tracker_state(restored, uninterrupted)

    def test_set_state_copies_in(self):
        tracker = DynamicClusterTracker(3, seed=0)
        for values in drifting_slots(5):
            tracker.update(values)
        state = tracker.get_state()
        restored = DynamicClusterTracker(3, seed=0)
        restored.set_state(state)
        state["centroids"][...] = -1.0
        np.testing.assert_array_equal(
            restored.centroid_tensor(), tracker.centroid_tensor()
        )


class TestSlotSeries:
    def test_appends_read_back_across_doublings(self):
        series = SlotSeries()
        rows = np.arange(2.0 * 70).reshape(70, 2)
        for count, row in enumerate(rows, start=1):
            series.append(row)
            assert len(series) == count
            assert series.copy().tobytes() == rows[:count].tobytes()
        np.testing.assert_array_equal(series.tail(3), rows[-3:])
        assert not series.view().flags.writeable

    def test_load_copies_and_keeps_the_dtype(self):
        rows = np.arange(12, dtype=np.float32).reshape(4, 3)
        series = SlotSeries()
        series.load(rows)
        rows[0] = -1.0
        series.append(np.ones(3))
        assert series.view().dtype == np.dtype(np.float32)
        np.testing.assert_array_equal(
            series.view()[:, 0], [0.0, 3.0, 6.0, 9.0, 1.0]
        )
        with pytest.raises(DataError, match="slot shape"):
            series.append(np.ones(2))
        series.clear()
        assert len(series) == 0
        with pytest.raises(DataError):
            series.view()
        series.append(np.ones(2))
        assert series.view().shape == (1, 2)
