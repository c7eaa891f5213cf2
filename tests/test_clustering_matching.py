"""Tests for the Hungarian assignment implementation (vs scipy and the
numpy-scalar reference it was ported from)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_impl import minimum_cost_assignment_reference
from scipy.optimize import linear_sum_assignment

from repro.clustering.matching import (
    maximum_weight_assignment,
    minimum_cost_assignment,
)
from repro.exceptions import DataError


def _total(weights, assignment):
    return weights[np.arange(len(assignment)), assignment].sum()


def brute_force_min(cost):
    n = cost.shape[0]
    best, best_perm = float("inf"), None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best, best_perm = total, perm
    return best, best_perm


class TestMinimumCost:
    def test_identity_case(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            minimum_cost_assignment(cost), [0, 1]
        )

    def test_swap_case(self):
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            minimum_cost_assignment(cost), [1, 0]
        )

    def test_empty(self):
        assert minimum_cost_assignment(np.zeros((0, 0))).size == 0

    def test_single(self):
        np.testing.assert_array_equal(
            minimum_cost_assignment(np.array([[5.0]])), [0]
        )

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            cost = rng.random((n, n))
            assignment = minimum_cost_assignment(cost)
            total = _total(cost, assignment)
            best, _ = brute_force_min(cost)
            assert total == pytest.approx(best)

    def test_matches_scipy_medium(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            cost = rng.random((n, n)) * 10
            ours = _total(cost, minimum_cost_assignment(cost))
            rows, cols = linear_sum_assignment(cost)
            theirs = cost[rows, cols].sum()
            assert ours == pytest.approx(theirs)

    def test_negative_costs(self):
        cost = np.array([[-5.0, 1.0], [2.0, -3.0]])
        assignment = minimum_cost_assignment(cost)
        assert _total(cost, assignment) == pytest.approx(-8.0)

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            minimum_cost_assignment(np.zeros((2, 3)))

    def test_nan_rejected(self):
        cost = np.array([[np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(DataError):
            minimum_cost_assignment(cost)

    @given(
        arrays(
            float, st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(-100, 100, allow_nan=False),
        ).filter(lambda a: a.shape[0] == a.shape[1])
    )
    @settings(max_examples=50, deadline=None)
    def test_property_permutation_and_optimal(self, cost):
        assignment = minimum_cost_assignment(cost)
        # Valid permutation.
        assert sorted(assignment.tolist()) == list(range(cost.shape[0]))
        # Optimal vs scipy.
        rows, cols = linear_sum_assignment(cost)
        assert _total(cost, assignment) == pytest.approx(
            cost[rows, cols].sum(), rel=1e-9, abs=1e-9
        )


class TestReferenceIdentity:
    """The list-indexed loop makes the reference's choices exactly:
    same comparisons, same first-minimum tie-break."""

    @given(
        st.integers(1, 12).flatmap(
            lambda n: arrays(
                float, (n, n), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_tied_integer_matrices(self, cost):
        ours = minimum_cost_assignment(cost)
        reference = minimum_cost_assignment_reference(cost)
        assert ours.dtype == reference.dtype
        np.testing.assert_array_equal(ours, reference)

    def test_k64(self):
        cost = np.random.default_rng(64).integers(0, 20, (64, 64))
        np.testing.assert_array_equal(
            minimum_cost_assignment(cost),
            minimum_cost_assignment_reference(cost),
        )


class TestMaximumWeight:
    def test_eq11_semantics(self):
        # w[k, j]: new cluster k matched to historical index j.
        weights = np.array(
            [[10.0, 0.0, 0.0], [0.0, 0.0, 9.0], [0.0, 8.0, 0.0]]
        )
        phi = maximum_weight_assignment(weights)
        np.testing.assert_array_equal(phi, [0, 2, 1])

    def test_matches_scipy_maximize(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            weights = rng.random((n, n)) * 5
            phi = maximum_weight_assignment(weights)
            rows, cols = linear_sum_assignment(weights, maximize=True)
            assert _total(weights, phi) == pytest.approx(
                weights[rows, cols].sum()
            )

    def test_tie_still_valid_permutation(self):
        weights = np.ones((4, 4))
        phi = maximum_weight_assignment(weights)
        assert sorted(phi.tolist()) == [0, 1, 2, 3]

    def test_integer_counts(self):
        # Similarity measures are integer node counts (Eq. 10).
        weights = np.array([[3, 1], [2, 2]], dtype=float)
        phi = maximum_weight_assignment(weights)
        assert _total(weights, phi) == 5.0
