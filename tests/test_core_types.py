"""Tests for repro.core.types."""

import numpy as np
import pytest

from repro.core.types import ClusterAssignment, validate_trace
from repro.exceptions import DataError


class TestClusterAssignment:
    def test_members_and_member_sets(self):
        a = ClusterAssignment(
            time=0,
            labels=np.array([0, 1, 0, 2, 1]),
            centroids=np.zeros((3, 1)),
        )
        assert list(a.members(0)) == [0, 2]
        assert [set(a.members(j).tolist()) for j in range(3)] == [
            {0, 2}, {1, 4}, {3},
        ]
        assert a.num_clusters == 3
        assert a.num_nodes == 5

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            ClusterAssignment(
                time=0, labels=np.array([0, 3]), centroids=np.zeros((2, 1))
            )

    def test_rejects_negative_labels(self):
        with pytest.raises(DataError):
            ClusterAssignment(
                time=0, labels=np.array([-1, 0]), centroids=np.zeros((2, 1))
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            ClusterAssignment(
                time=0, labels=np.zeros((2, 2), dtype=int),
                centroids=np.zeros((2, 1)),
            )
        with pytest.raises(DataError):
            ClusterAssignment(
                time=0, labels=np.zeros(2, dtype=int), centroids=np.zeros(3)
            )

    def test_empty_cluster_allowed(self):
        a = ClusterAssignment(
            time=0, labels=np.array([0, 0]), centroids=np.zeros((2, 1))
        )
        assert list(a.members(1)) == []


class TestValidateTrace:
    def test_promotes_2d(self):
        out = validate_trace(np.zeros((4, 3)))
        assert out.shape == (4, 3, 1)

    def test_passes_3d(self):
        out = validate_trace(np.zeros((4, 3, 2)))
        assert out.shape == (4, 3, 2)

    def test_rejects_1d(self):
        with pytest.raises(DataError):
            validate_trace(np.zeros(4))

    def test_rejects_nan(self):
        data = np.zeros((2, 2))
        data[0, 0] = np.nan
        with pytest.raises(DataError):
            validate_trace(data)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            validate_trace(np.zeros((0, 3)))
