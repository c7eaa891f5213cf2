"""Integration tests: every experiment runs at tiny scale and reproduces
the paper's qualitative claim it encodes."""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments import fig12_gaussian, table2_training_time
from repro.experiments.common import (
    load_cluster_datasets,
    rolling_forecast,
    run_clustering,
    sample_hold_forecast_rmse,
)
from repro.exceptions import ConfigurationError
from repro.forecasting.arima.model import ArimaModel
from repro.forecasting.lstm.forecaster import LstmForecaster
from repro.forecasting.lstm.network import StackedLSTMNetwork
from repro.gaussian import monitor


class WorkClock:
    """Stands in for an experiment's ``time`` module: its
    ``perf_counter`` reads multiply-adds counted by the wrappers below,
    so the experiment's timing tables hold counted work, which does not
    depend on how busy the machine is."""

    def __init__(self):
        self.work = 0

    def perf_counter(self):
        return self.work


def count_table2_work(monkeypatch):
    """Make Table II's clock count training multiply-adds.

    An ARIMA objective evaluation filters the differenced series once:
    ``len(w) * (coefficients + 1)``.  An LSTM minibatch's forward pass
    uses every weight once per sample and time step: ``weights * batch
    * lookback``, a lower bound, as the backward pass is not counted.
    """
    clock = WorkClock()
    objective = ArimaModel._objective
    loss_and_gradient = StackedLSTMNetwork.loss_and_gradient

    def counted_objective(self, params_and_mean, w):
        clock.work += w.size * (self.order.num_coefficients + 1)
        return objective(self, params_and_mean, w)

    def counted_loss_and_gradient(self, windows, targets):
        weights = sum(
            array.size
            for layer in self.layers
            for array in layer.parameters.values()
        )
        clock.work += weights * windows.shape[0] * windows.shape[1]
        return loss_and_gradient(self, windows, targets)

    monkeypatch.setattr(ArimaModel, "_objective", counted_objective)
    monkeypatch.setattr(
        StackedLSTMNetwork, "loss_and_gradient", counted_loss_and_gradient
    )
    monkeypatch.setattr(table2_training_time, "time", clock)


def count_fig12_work(monkeypatch):
    """Make Fig. 12's clock count multiply-adds.

    A covariance estimate over ``(T, N)`` rows costs ``T * N**2``; a
    K-means call ``restarts * iterations * n * K * d`` (the winning
    run's iterations, for every restart); inferring the unobserved
    nodes from ``K`` monitors ``K**3 + (N - K) * K``.
    """
    clock = WorkClock()
    estimate_gaussian = monitor.estimate_gaussian
    kmeans = monitor.kmeans
    infer_unobserved = monitor.infer_unobserved

    def counted_estimate_gaussian(data, **kwargs):
        rows, nodes = np.shape(data)
        clock.work += rows * nodes * nodes
        return estimate_gaussian(data, **kwargs)

    def counted_kmeans(points, num_clusters, **kwargs):
        result = kmeans(points, num_clusters, **kwargs)
        rows, dim = points.shape
        clock.work += (
            kwargs["restarts"] * result.iterations * rows * num_clusters
            * dim
        )
        return result

    def counted_infer_unobserved(model, monitors, observed):
        count = len(monitors)
        clock.work += count**3 + (model.num_nodes - count) * count
        return infer_unobserved(model, monitors, observed)

    monkeypatch.setattr(
        monitor, "estimate_gaussian", counted_estimate_gaussian
    )
    monkeypatch.setattr(monitor, "kmeans", counted_kmeans)
    monkeypatch.setattr(
        monitor, "infer_unobserved", counted_infer_unobserved
    )
    monkeypatch.setattr(monitor, "_time", clock)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "table1", "table2",
            "table3",
        }
        ablations = {
            "ablation_reindexing", "ablation_offsets",
            "ablation_warm_start", "ablation_deadband",
        }
        assert set(EXPERIMENTS) == expected | ablations


class TestCommon:
    def test_load_cluster_datasets(self):
        datasets = load_cluster_datasets(10, 40)
        assert set(datasets) == {"alibaba", "bitbrains", "google"}
        for ds in datasets.values():
            assert ds.num_nodes == 10
            assert ds.num_steps == 40

    def test_run_clustering_methods(self):
        stored = np.random.default_rng(0).random((30, 12))
        for method in ("proposed", "minimum_distance", "static"):
            assignments = run_clustering(stored, method, 3, seed=0)
            assert len(assignments) == 30

    def test_run_clustering_unknown(self):
        with pytest.raises(ConfigurationError):
            run_clustering(np.zeros((5, 4)), "other", 2)

    def test_sample_hold_forecast_rmse_keys(self):
        rng = np.random.default_rng(1)
        truth = rng.random((40, 6))
        assignments = run_clustering(truth, "proposed", 2, seed=0)
        out = sample_hold_forecast_rmse(
            truth, truth, assignments, horizons=(1, 3), start=5
        )
        assert set(out) == {1, 3}
        assert all(v >= 0 for v in out.values())

    def test_rolling_forecast_walkforward(self):
        series = np.linspace(0, 1, 60)
        predictions = rolling_forecast(
            series,
            lambda: __import__(
                "repro.forecasting.sample_hold", fromlist=["SampleHoldForecaster"]
            ).SampleHoldForecaster(),
            start=10, horizon=2, retrain_interval=100,
        )
        # Sample-and-hold made at t for t+2 equals series[t].
        assert predictions[20] == pytest.approx(series[18])

    def test_rolling_forecast_start_validation(self):
        with pytest.raises(ConfigurationError):
            rolling_forecast(np.zeros(10), lambda: None, start=0,
                             horizon=1, retrain_interval=5)


@pytest.mark.slow
class TestExperimentClaims:
    """Each test reruns one experiment at reduced scale and asserts the
    paper's qualitative conclusion."""

    def test_fig1_sensors_more_correlated(self):
        result = run_fig1(num_nodes=20, num_steps=300, cluster_nodes=30)
        assert result.fraction_above_half["temperature"] > 0.8
        assert result.fraction_above_half["humidity"] > 0.8
        assert result.fraction_above_half["cpu"] < 0.5
        assert result.fraction_above_half["memory"] < 0.5

    def test_fig3_frequency_matches(self):
        result = run_fig3(num_nodes=15, num_steps=600,
                          budgets=(0.05, 0.1, 0.3))
        for freqs in result.actual.values():
            for budget, freq in zip(result.budgets, freqs):
                assert freq == pytest.approx(budget, rel=0.25)

    def test_fig4_adaptive_beats_uniform(self):
        result = run_fig4(num_nodes=20, num_steps=400,
                          budgets=(0.1, 0.3), resources=("cpu",))
        assert result.adaptive_wins() == 1.0

    def test_fig5_window_one_best(self):
        result = run_fig5(num_nodes=20, num_steps=200, windows=(1, 10),
                          resources=("cpu",))
        for key in result.rmse:
            assert result.best_window(*key) == 1

    def test_table1_scalar_beats_vector(self):
        result = run_table1(num_nodes=20, num_steps=200)
        assert result.scalar_wins() == len(result.scalar)

    def test_fig6_proposed_beats_minimum_distance(self):
        result = run_fig6(num_nodes=20, num_steps=200, budgets=(0.3,),
                          resources=("cpu",))
        assert result.proposed_beats_minimum_distance() == 1.0

    def test_fig7_rmse_decreases_with_k(self):
        result = run_fig7(num_nodes=20, num_steps=200,
                          cluster_counts=(1, 3, 10), resources=("cpu",))
        for key, values in result.rmse.items():
            if key[2] == "proposed":
                assert values[0] > values[-1]

    def test_fig8_tracking_reasonable(self):
        result = run_fig8(num_nodes=20, num_steps=260, start=120,
                          retrain_interval=100)
        for (model, cluster), mae in result.tracking_mae.items():
            assert mae < 0.25, (model, cluster, mae)

    def test_fig9_cluster_models_beat_stddev(self):
        result = run_fig9(
            num_nodes=15, num_steps=260, horizons=(1, 5),
            initial_collection=120, retrain_interval=120,
            models=("sample_hold",),
        )
        bound = result.stddev_bound["alibaba"]
        per_h = result.rmse[("alibaba", "sample_hold")]
        assert per_h[1] < bound
        assert per_h[5] < bound

    def test_fig10_runs_all_methods(self):
        result = run_fig10(num_nodes=20, num_steps=200, horizons=(1, 5),
                           start=40)
        methods = {key[2] for key in result.rmse}
        assert methods == {"proposed", "static", "minimum_distance"}

    # Table II and Table IV are timings.  Here their clocks count
    # multiply-adds (count_table2_work, count_fig12_work), so that a
    # busy CPU cannot fail them; the wall-clock claims are asserted in
    # benchmarks/test_bench_table2_training_time.py and
    # test_bench_table4_computation_time.py.
    TABLE2_SCALE = dict(
        num_nodes=10, num_steps=240, initial_collection=120,
        retrain_interval=120, lstm_epochs=20,
    )

    def test_table2_lstm_slower(self, monkeypatch):
        count_table2_work(monkeypatch)
        result = run_table2(**self.TABLE2_SCALE)
        assert result.lstm_slower_everywhere()

    def test_table2_count_fails_for_an_untrained_lstm(self, monkeypatch):
        count_table2_work(monkeypatch)
        fit = LstmForecaster._fit

        def untrained_fit(self, series):
            self.epochs = 0
            fit(self, series)

        monkeypatch.setattr(LstmForecaster, "_fit", untrained_fit)
        result = run_table2(**self.TABLE2_SCALE)
        assert not result.lstm_slower_everywhere()

    def test_table3_grid_complete(self):
        result = run_table3(num_nodes=20, num_steps=200,
                            m_values=(1, 5), m_prime_values=(1, 5),
                            horizons=(1, 5), start=40)
        assert len(result.rmse) == 2 * 2 * 2

    def test_fig11_intersection_not_worse(self):
        result = run_fig11(num_nodes=20, num_steps=200, horizons=(1, 5),
                           start=40)
        assert result.proposed_not_worse(tolerance=0.02) >= 0.8

    def test_fig12_proposed_beats_top_w_and_random(self):
        result = run_fig12(
            num_nodes=50, train_steps=200, test_steps=200,
            monitor_counts=(10,), datasets=("google",),
        )
        rmse = {
            scheme: evals[0].rmse
            for (d, scheme), evals in result.evaluations.items()
        }
        assert rmse["proposed"] <= rmse["top_w"] + 0.02
        assert rmse["proposed"] <= rmse["minimum_distance"] + 0.02

    FIG12_SCALE = dict(
        num_nodes=40, train_steps=150, test_steps=150,
        monitor_counts=(8,), datasets=("alibaba",),
        schemes=("proposed", "top_w", "top_w_update"),
    )

    def test_fig12_top_w_update_slowest(self, monkeypatch):
        count_fig12_work(monkeypatch)
        timing = run_fig12(**self.FIG12_SCALE).timing_table("alibaba")
        assert timing["top_w_update"] > timing["proposed"]
        assert timing["top_w_update"] > timing["top_w"]

    def test_fig12_count_fails_without_updates(self, monkeypatch):
        # A Top-W-Update that never re-estimates does Top-W's work.
        count_fig12_work(monkeypatch)
        build = fig12_gaussian._build_scheme

        def never_updating(name, num_monitors, seed):
            scheme = build(name, num_monitors, seed)
            if name == "top_w_update":
                scheme.update_interval = 10**9
            return scheme

        monkeypatch.setattr(fig12_gaussian, "_build_scheme", never_updating)
        timing = run_fig12(**self.FIG12_SCALE).timing_table("alibaba")
        assert not timing["top_w_update"] > timing["top_w"]
