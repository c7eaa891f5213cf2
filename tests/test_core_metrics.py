"""Tests for repro.core.metrics (Eq. 3–4 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.metrics import (
    instantaneous_rmse,
    intermediate_rmse,
    standard_deviation_bound,
    time_averaged_rmse,
)
from repro.exceptions import DataError


class TestInstantaneousRmse:
    def test_zero_for_exact(self):
        x = np.random.default_rng(0).random((5, 2))
        assert instantaneous_rmse(x, x) == 0.0

    def test_known_value_multidim(self):
        # Two nodes, d=2: errors (1,0) and (0,1) -> sqrt((1+1)/2) = 1.
        est = np.array([[1.0, 0.0], [0.0, 1.0]])
        tru = np.zeros((2, 2))
        assert instantaneous_rmse(est, tru) == pytest.approx(1.0)

    def test_scalar_nodes(self):
        # Eq. 3 with d=1: sqrt(mean of squared errors).
        est = np.array([1.0, 2.0, 3.0])
        tru = np.array([0.0, 0.0, 0.0])
        expected = np.sqrt((1 + 4 + 9) / 3)
        assert instantaneous_rmse(est, tru) == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            instantaneous_rmse(np.zeros(3), np.zeros(4))

    def test_single_vector_node_not_transposed(self):
        # Regression: a genuine (1, d) input is ONE node with a d-vector
        # measurement — the error must be normalized by N=1, not by d.
        est = np.array([[1.0, 0.0, 0.0, 0.0]])
        tru = np.zeros((1, 4))
        assert instantaneous_rmse(est, tru) == pytest.approx(1.0)

    def test_single_vector_node_matches_fleet_row(self):
        # One (1, d) node must contribute the same squared error as that
        # row does inside a larger (N, d) fleet computation.
        rng = np.random.default_rng(5)
        est = rng.random((3, 4))
        tru = rng.random((3, 4))
        fleet_sq = instantaneous_rmse(est, tru) ** 2 * 3
        rows_sq = sum(
            instantaneous_rmse(est[i : i + 1], tru[i : i + 1]) ** 2
            for i in range(3)
        )
        assert rows_sq == pytest.approx(fleet_sq)

    def test_batch_matches_per_slot(self):
        from repro.core.metrics import instantaneous_rmse_batch

        rng = np.random.default_rng(6)
        est = rng.random((7, 5, 3))
        tru = rng.random((7, 5, 3))
        batched = instantaneous_rmse_batch(est, tru)
        assert batched.shape == (7,)
        for t in range(7):
            assert batched[t] == instantaneous_rmse(est[t], tru[t])

    def test_batch_scalar_nodes(self):
        from repro.core.metrics import instantaneous_rmse_batch

        rng = np.random.default_rng(7)
        est = rng.random((4, 6))
        tru = rng.random((4, 6))
        batched = instantaneous_rmse_batch(est, tru)
        for t in range(4):
            assert batched[t] == instantaneous_rmse(est[t], tru[t])

    def test_batch_shape_errors(self):
        from repro.core.metrics import instantaneous_rmse_batch

        with pytest.raises(DataError):
            instantaneous_rmse_batch(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(DataError):
            instantaneous_rmse_batch(np.zeros(3), np.zeros(3))

    @given(
        arrays(float, (6,), elements=st.floats(-1, 1)),
        arrays(float, (6,), elements=st.floats(-1, 1)),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert instantaneous_rmse(a, b) == pytest.approx(
            instantaneous_rmse(b, a)
        )

    @given(arrays(float, (6,), elements=st.floats(-1, 1)))
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, a):
        assert instantaneous_rmse(a, np.zeros(6)) >= 0.0


class TestTimeAveragedRmse:
    def test_squares_then_roots(self):
        # Eq. 4: sqrt(mean of squares), not mean of values.
        values = [3.0, 4.0]
        expected = np.sqrt((9 + 16) / 2)
        assert time_averaged_rmse(values) == pytest.approx(expected)

    def test_single_value_identity(self):
        assert time_averaged_rmse([0.7]) == pytest.approx(0.7)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            time_averaged_rmse([])

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_at_least_mean(self, values):
        # Quadratic mean >= arithmetic mean.
        assert time_averaged_rmse(values) >= np.mean(values) - 1e-9


class TestIntermediateRmse:
    def test_zero_when_on_centroids(self):
        centroids = np.array([[0.2], [0.8]])
        data = np.array([0.2, 0.8, 0.2])
        labels = np.array([0, 1, 0])
        assert intermediate_rmse(data, labels, centroids) == 0.0

    def test_known_value(self):
        centroids = np.array([[0.0], [1.0]])
        data = np.array([0.5, 0.5])
        labels = np.array([0, 1])
        assert intermediate_rmse(data, labels, centroids) == pytest.approx(0.5)

    def test_label_count_mismatch(self):
        with pytest.raises(DataError):
            intermediate_rmse(np.zeros(3), np.zeros(2, dtype=int), np.zeros((1, 1)))


class TestStandardDeviationBound:
    def test_constant_trace_zero(self):
        assert standard_deviation_bound(np.full((10, 4), 0.5)) == 0.0

    def test_matches_manual(self):
        rng = np.random.default_rng(1)
        trace = rng.random((50, 6))
        expected = np.sqrt(trace.var(axis=0).mean())
        assert standard_deviation_bound(trace) == pytest.approx(expected)

    def test_is_rmse_of_mean_predictor(self):
        rng = np.random.default_rng(2)
        trace = rng.random((40, 5))
        means = trace.mean(axis=0)
        sq = np.mean((trace - means) ** 2)
        assert standard_deviation_bound(trace) == pytest.approx(np.sqrt(sq))

    def test_rejects_3d(self):
        with pytest.raises(DataError):
            standard_deviation_bound(np.zeros((2, 2, 2)))
