"""Tests for the ablation experiments (design-choice validation)."""

import numpy as np
import pytest

from repro.clustering import dynamic
from repro.experiments.ablations import (
    run_ablation_offsets,
    run_ablation_reindexing,
    run_ablation_warm_start,
)
from repro.experiments.common import sample_hold_forecast_rmse, run_clustering
from repro.exceptions import ConfigurationError


@pytest.mark.slow
class TestReindexingAblation:
    def test_matching_essential_for_forecasting(self):
        result = run_ablation_reindexing(
            num_nodes=25, num_steps=200, start=40, horizons=(1, 5)
        )
        # Without Hungarian re-indexing the centroid series are permuted
        # arbitrarily each step; forecasting degrades badly.
        assert result.reindexing_helps(1)
        assert result.reindexing_helps(5)
        assert (
            result.rmse["unmatched"][1] > 1.3 * result.rmse["matched"][1]
        )


@pytest.mark.slow
class TestOffsetAblation:
    def test_offsets_improve_over_centroid_only(self):
        result = run_ablation_offsets(
            num_nodes=25, num_steps=200, start=40, horizons=(1, 5)
        )
        assert result.offsets_help(1)
        # Clipped and raw offsets should be close; both beat none at h=1.
        assert (
            abs(result.rmse["clipped"][1] - result.rmse["raw"][1]) < 0.02
        )


@pytest.mark.slow
class TestWarmStartAblation:
    def test_warm_start_same_quality(self, monkeypatch):
        # Count the K-means work instead of timing it: per call, the
        # Lloyd runs (one when warm-started, ``restarts`` when seeded by
        # k-means++) and the winning run's iterations.
        calls = []
        real_kmeans = dynamic.kmeans

        def counting_kmeans(points, num_clusters, **kwargs):
            result = real_kmeans(points, num_clusters, **kwargs)
            warm_started = kwargs.get("initial_centroids") is not None
            runs = 1 if warm_started else kwargs["restarts"]
            calls.append((runs, result.iterations))
            return result

        monkeypatch.setattr(dynamic, "kmeans", counting_kmeans)
        result = run_ablation_warm_start(num_nodes=30, num_steps=200)
        assert result.quality_gap() < 0.01
        # One call per step, the cold variant's 200 steps first.
        assert len(calls) == 400
        cold = np.array(calls[:200]).sum(axis=0)
        warm = np.array(calls[200:]).sum(axis=0)
        # Warm start does less work: fewer Lloyd runs, and fewer
        # iterations in total than the cold variant's winning runs alone.
        assert warm[0] < cold[0]
        assert warm[1] < cold[1]


class TestOffsetModeParameter:
    def test_invalid_mode_rejected(self):
        rng = np.random.default_rng(0)
        truth = rng.random((20, 5))
        assignments = run_clustering(truth, "proposed", 2, seed=0)
        with pytest.raises(ConfigurationError):
            sample_hold_forecast_rmse(
                truth, truth, assignments, (1,), offset_mode="bogus"
            )

    def test_none_mode_matches_centroid_estimate(self):
        rng = np.random.default_rng(1)
        truth = rng.random((30, 6))
        assignments = run_clustering(truth, "proposed", 2, seed=0)
        none = sample_hold_forecast_rmse(
            truth, truth, assignments, (1,), offset_mode="none", start=5
        )
        clipped = sample_hold_forecast_rmse(
            truth, truth, assignments, (1,), offset_mode="clipped", start=5
        )
        assert none[1] != pytest.approx(clipped[1])
