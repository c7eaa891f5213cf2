"""Tests for the Eq. 10 similarity measure and the Jaccard variant, in
the set transcription the package's label functions are pinned
against (``tests/test_equivalence.py``)."""

import numpy as np
import pytest

from reference_impl import (
    history_intersection,
    intersection_similarity_matrix,
    jaccard_similarity_matrix,
    similarity_matrix,
)
from repro.exceptions import ConfigurationError, DataError


class TestHistoryIntersection:
    def test_single_step(self):
        history = [[{1, 2, 3}, {4, 5}]]
        assert history_intersection(history, 0) == {1, 2, 3}

    def test_multi_step_intersects(self):
        history = [[{1, 2, 3}, {4}], [{2, 3, 5}, {4}]]
        assert history_intersection(history, 0) == {2, 3}
        assert history_intersection(history, 1) == {4}

    def test_empty_history_raises(self):
        with pytest.raises(DataError):
            history_intersection([], 0)


class TestIntersectionSimilarity:
    def test_eq10_counts(self):
        # New clusters from K-means vs one historical partition.
        new = [{0, 1, 2}, {3, 4}]
        history = [[{0, 1}, {2, 3, 4}]]
        weights = intersection_similarity_matrix(new, history)
        # w[k, j] = |new_k ∩ hist_j|
        np.testing.assert_array_equal(weights, [[2, 1], [0, 2]])

    def test_lookback_multiple_steps(self):
        # Node 1 was in historical cluster 0 at both steps; node 2 only
        # at the most recent.  Eq. 10 intersects across steps first.
        new = [{1, 2}, {3}]
        history = [
            [{1, 3}, {2}],   # older
            [{1, 2}, {3}],   # newer
        ]
        weights = intersection_similarity_matrix(new, history)
        np.testing.assert_array_equal(weights, [[1, 0], [0, 0]])

    def test_unnormalized(self):
        # Doubling cluster sizes doubles the similarity (not normalized).
        new_small = [{0}, {1}]
        hist_small = [[{0}, {1}]]
        new_big = [{0, 2}, {1, 3}]
        hist_big = [[{0, 2}, {1, 3}]]
        small = intersection_similarity_matrix(new_small, hist_small)
        big = intersection_similarity_matrix(new_big, hist_big)
        assert big[0, 0] == 2 * small[0, 0]

    def test_inconsistent_cluster_counts(self):
        with pytest.raises(DataError):
            intersection_similarity_matrix([{0}], [[{0}, {1}]])


class TestJaccardSimilarity:
    def test_normalized_to_unit(self):
        new = [{0, 1}, {2}]
        history = [[{0, 1}, {2}]]
        weights = jaccard_similarity_matrix(new, history)
        assert weights[0, 0] == pytest.approx(1.0)
        assert weights[1, 1] == pytest.approx(1.0)
        assert weights[0, 1] == 0.0

    def test_partial_overlap(self):
        new = [{0, 1, 2}, {3}]
        history = [[{0, 1, 3}, {2}]]
        weights = jaccard_similarity_matrix(new, history)
        # |{0,1}| / |{0,1,2,3}| = 0.5
        assert weights[0, 0] == pytest.approx(0.5)

    def test_empty_union_gives_zero(self):
        new = [set(), {0}]
        history = [[set(), {0}]]
        weights = jaccard_similarity_matrix(new, history)
        assert weights[0, 0] == 0.0

    def test_scale_invariant_unlike_intersection(self):
        new_small = [{0}, {1}]
        hist_small = [[{0}, {1}]]
        new_big = [{0, 2}, {1, 3}]
        hist_big = [[{0, 2}, {1, 3}]]
        small = jaccard_similarity_matrix(new_small, hist_small)
        big = jaccard_similarity_matrix(new_big, hist_big)
        assert big[0, 0] == small[0, 0]


class TestDispatch:
    def test_intersection_dispatch(self):
        new = [{0}, {1}]
        history = [[{0}, {1}]]
        np.testing.assert_array_equal(
            similarity_matrix("intersection", new, history),
            intersection_similarity_matrix(new, history),
        )

    def test_jaccard_dispatch(self):
        new = [{0}, {1}]
        history = [[{0}, {1}]]
        np.testing.assert_array_equal(
            similarity_matrix("jaccard", new, history),
            jaccard_similarity_matrix(new, history),
        )

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            similarity_matrix("cosine", [{0}], [[{0}]])
