"""Tests for the Gaussian monitoring baseline substrate (Sec. VI-E)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.gaussian.covariance import estimate_gaussian
from repro.gaussian.inference import infer_unobserved
from repro.gaussian.monitor import (
    BatchSelectionScheme,
    MinimumDistanceScheme,
    ProposedMonitorScheme,
    TopWScheme,
    TopWUpdateScheme,
    evaluate_scheme,
)
from repro.gaussian.selection import (
    batch_selection,
    random_selection,
    top_w_selection,
)


def correlated_samples(seed=0, steps=400, groups=((0, 1, 2), (3, 4))):
    """Two latent factors drive two groups of nodes."""
    rng = np.random.default_rng(seed)
    num_nodes = max(max(g) for g in groups) + 1
    data = np.zeros((steps, num_nodes))
    for group in groups:
        factor = np.cumsum(rng.normal(0, 0.05, steps))
        for node in group:
            data[:, node] = factor + rng.normal(0, 0.01, steps)
    return data


class TestEstimateGaussian:
    def test_mean_and_covariance(self):
        rng = np.random.default_rng(0)
        data = rng.multivariate_normal(
            [1.0, -1.0], [[1.0, 0.5], [0.5, 2.0]], size=20000
        )
        model = estimate_gaussian(data, shrinkage=0.0)
        np.testing.assert_allclose(model.mean, [1.0, -1.0], atol=0.05)
        np.testing.assert_allclose(
            model.covariance, [[1.0, 0.5], [0.5, 2.0]], atol=0.08
        )

    def test_shrinkage_preserves_diagonal(self):
        data = correlated_samples()
        raw = estimate_gaussian(data, shrinkage=0.0)
        shrunk = estimate_gaussian(data, shrinkage=0.5)
        np.testing.assert_allclose(
            np.diag(shrunk.covariance), np.diag(raw.covariance), rtol=1e-6
        )
        assert abs(shrunk.covariance[0, 1]) < abs(raw.covariance[0, 1])

    def test_correlation_unit_diagonal(self):
        model = estimate_gaussian(correlated_samples())
        np.testing.assert_allclose(
            np.diag(model.correlation()), 1.0, rtol=1e-6
        )

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            estimate_gaussian(np.zeros((1, 3)))

    def test_invalid_shrinkage(self):
        with pytest.raises(DataError):
            estimate_gaussian(np.zeros((5, 2)), shrinkage=1.5)


class TestInference:
    def test_monitors_pass_through(self):
        model = estimate_gaussian(correlated_samples())
        row = np.random.default_rng(1).random(5)
        out = infer_unobserved(model, [0, 3], row[[0, 3]])
        assert out[0] == row[0]
        assert out[3] == row[3]

    def test_correlated_nodes_inferred(self):
        data = correlated_samples(steps=2000)
        model = estimate_gaussian(data, shrinkage=0.01)
        # Node 1 is in the same group as node 0: observing node 0 high
        # should pull node 1's estimate up.
        truth = data[-1]
        out = infer_unobserved(model, [0, 3], truth[[0, 3]])
        assert abs(out[1] - truth[1]) < 0.1

    def test_no_monitors_returns_mean(self):
        model = estimate_gaussian(correlated_samples())
        out = infer_unobserved(model, [], np.array([]))
        np.testing.assert_allclose(out, model.mean)

    def test_all_monitors(self):
        model = estimate_gaussian(correlated_samples())
        row = np.random.default_rng(2).random(5)
        out = infer_unobserved(model, list(range(5)), row)
        np.testing.assert_allclose(out, row)

    def test_duplicate_monitor_rejected(self):
        model = estimate_gaussian(correlated_samples())
        with pytest.raises(DataError):
            infer_unobserved(model, [0, 0], np.zeros(2))

    def test_out_of_range_monitor(self):
        model = estimate_gaussian(correlated_samples())
        with pytest.raises(DataError):
            infer_unobserved(model, [9], np.zeros(1))


class TestSelection:
    def test_top_w_count_and_range(self):
        model = estimate_gaussian(correlated_samples())
        monitors = top_w_selection(model, 2)
        assert len(monitors) == 2
        assert all(0 <= m < 5 for m in monitors)

    def test_top_w_prefers_big_group(self):
        # Nodes 0-2 are mutually correlated; the single most informative
        # node must come from that group.
        data = correlated_samples(steps=2000)
        model = estimate_gaussian(data, shrinkage=0.01)
        monitors = top_w_selection(model, 1)
        assert monitors[0] in (0, 1, 2)

    def test_batch_selection_covers_groups(self):
        data = correlated_samples(steps=2000)
        model = estimate_gaussian(data, shrinkage=0.01)
        monitors = batch_selection(model, 2)
        groups = [{0, 1, 2}, {3, 4}]
        hit = [any(m in g for m in monitors) for g in groups]
        assert all(hit), f"monitors {monitors} miss a group"

    def test_batch_selection_avoids_redundancy_vs_top_w(self):
        # Top-W may pick two nodes from the dominant group; batch
        # selection should spread.  (Both must still return K valid ids.)
        data = correlated_samples(steps=2000)
        model = estimate_gaussian(data, shrinkage=0.01)
        batch = batch_selection(model, 2)
        assert len(set(batch)) == 2

    def test_random_selection_respects_seed(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        assert random_selection(10, 3, rng1) == random_selection(10, 3, rng2)

    def test_too_many_monitors(self):
        model = estimate_gaussian(correlated_samples())
        with pytest.raises(ConfigurationError):
            top_w_selection(model, 9)
        with pytest.raises(ConfigurationError):
            batch_selection(model, 9)


class TestMonitoringSchemes:
    def _split(self):
        data = correlated_samples(steps=600, seed=3)
        return data[:400], data[400:]

    @pytest.mark.parametrize(
        "scheme_cls", [
            ProposedMonitorScheme,
            MinimumDistanceScheme,
            TopWScheme,
            BatchSelectionScheme,
        ],
    )
    def test_train_then_estimate(self, scheme_cls):
        train, test = self._split()
        scheme = scheme_cls(2)
        scheme.train(train)
        assert len(scheme.monitors) == 2
        out = scheme.estimate_step(test[0])
        assert out.shape == (5,)
        for m in scheme.monitors:
            assert out[m] == test[0][m]

    def test_untrained_raises(self):
        scheme = TopWScheme(2)
        with pytest.raises(NotFittedError):
            scheme.estimate_step(np.zeros(5))
        with pytest.raises(NotFittedError):
            ProposedMonitorScheme(2).estimate_step(np.zeros(5))

    def test_proposed_groups_by_series(self):
        train, test = self._split()
        scheme = ProposedMonitorScheme(2, seed=0)
        scheme.train(train)
        # Nodes 0-2 share a monitor, nodes 3-4 share the other.
        assignment = scheme._assignment
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] == assignment[4]
        assert assignment[0] != assignment[3]

    def test_top_w_update_changes_model(self):
        train, test = self._split()
        scheme = TopWUpdateScheme(2, update_interval=5)
        scheme.train(train)
        model_before = scheme._model
        for t in range(10):
            scheme.estimate_step(test[t])
        assert scheme._model is not model_before

    def test_top_w_update_interval_validation(self):
        with pytest.raises(ConfigurationError):
            TopWUpdateScheme(2, update_interval=0)

    def test_evaluate_scheme_outputs(self):
        train, test = self._split()
        evaluation = evaluate_scheme(ProposedMonitorScheme(2, seed=0), train, test)
        assert evaluation.scheme == "proposed"
        assert evaluation.rmse >= 0
        assert evaluation.train_seconds >= 0
        assert evaluation.total_seconds >= evaluation.test_seconds

    def test_evaluate_scheme_shape_check(self):
        with pytest.raises(DataError):
            evaluate_scheme(
                TopWScheme(1), np.zeros((10, 3)), np.zeros((10, 4))
            )

    def test_more_monitors_not_worse(self):
        train, test = self._split()
        few = evaluate_scheme(ProposedMonitorScheme(1, seed=0), train, test)
        many = evaluate_scheme(ProposedMonitorScheme(4, seed=0), train, test)
        assert many.rmse <= few.rmse + 0.05
