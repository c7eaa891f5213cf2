"""Tests for correlation analysis and reporting helpers."""

import numpy as np
import pytest

from repro.analysis.correlation import (
    cdf_at,
    fraction_above,
    pairwise_correlations,
)
from repro.analysis.reporting import format_table
from repro.exceptions import DataError


class TestPairwiseCorrelations:
    def test_perfectly_correlated(self):
        base = np.random.default_rng(0).random(100)
        trace = np.stack([base, base * 2 + 1], axis=1)
        corr = pairwise_correlations(trace)
        assert corr.shape == (1,)
        assert corr[0] == pytest.approx(1.0)

    def test_anticorrelated(self):
        base = np.random.default_rng(1).random(100)
        trace = np.stack([base, -base], axis=1)
        assert pairwise_correlations(trace)[0] == pytest.approx(-1.0)

    def test_pair_count(self):
        trace = np.random.default_rng(2).random((50, 6))
        assert pairwise_correlations(trace).shape == (15,)

    def test_constant_nodes_excluded(self):
        rng = np.random.default_rng(3)
        trace = np.stack(
            [rng.random(50), np.full(50, 0.5), rng.random(50)], axis=1
        )
        corr = pairwise_correlations(trace)
        assert corr.shape == (1,)  # only the two varying nodes pair up

    def test_too_few_varying_nodes(self):
        trace = np.stack([np.full(50, 0.5), np.full(50, 0.7)], axis=1)
        with pytest.raises(DataError):
            pairwise_correlations(trace)

    def test_single_step_rejected(self):
        with pytest.raises(DataError):
            pairwise_correlations(np.zeros((1, 5)))


class TestEmpiricalCdf:
    def test_cdf_at_known_points(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        out = cdf_at(values, np.array([0.0, 2.5, 10.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])


class TestSummaries:
    def test_fraction_above(self):
        base = np.random.default_rng(5).random(200)
        trace = np.stack([base, base, -base], axis=1)
        # pairs: (0,1)=+1, (0,2)=-1, (1,2)=-1 -> one of three above 0.5
        assert fraction_above(trace, 0.5) == pytest.approx(1 / 3)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.23456], ["long-name", 2]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.2346" in text
        assert lines[0].startswith("name")

    def test_format_table_precision(self):
        text = format_table(["v"], [[0.123456]], precision=2)
        assert "0.12" in text
