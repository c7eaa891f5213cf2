"""Tests for the dataset container and synthetic trace generators."""

import numpy as np
import pytest

from repro.analysis.correlation import fraction_above
from repro.datasets import (
    ProfileTraceSpec,
    TraceDataset,
    generate_memberships,
    generate_profile_paths,
    generate_resource_trace,
    load_alibaba_like,
    load_bitbrains_like,
    load_google_like,
    load_sensor_like,
)
from repro.datasets.synthetic import draw_regime_events, generate_bursts
from repro.exceptions import ConfigurationError, DataError


class TestTraceDataset:
    def test_properties(self):
        data = np.random.default_rng(0).random((10, 4, 2))
        ds = TraceDataset("x", data)
        assert ds.num_steps == 10
        assert ds.num_nodes == 4
        assert ds.num_resources == 2

    def test_resource_lookup(self):
        data = np.random.default_rng(1).random((5, 3, 2))
        ds = TraceDataset("x", data)
        np.testing.assert_array_equal(ds.resource("cpu"), data[:, :, 0])
        np.testing.assert_array_equal(ds.resource("memory"), data[:, :, 1])

    def test_unknown_resource(self):
        ds = TraceDataset("x", np.zeros((2, 2, 2)))
        with pytest.raises(DataError):
            ds.resource("gpu")

    def test_resource_name_count_mismatch(self):
        with pytest.raises(DataError):
            TraceDataset("x", np.zeros((2, 2, 1)))

    def test_slice(self):
        ds = TraceDataset("x", np.random.default_rng(2).random((10, 6, 2)))
        sub = ds.slice(steps=slice(0, 5), nodes=slice(0, 3))
        assert sub.num_steps == 5
        assert sub.num_nodes == 3


class TestProfileTraceSpec:
    def test_defaults_valid(self):
        ProfileTraceSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_profiles": 0},
            {"ar_coefficient": 1.0},
            {"churn": 1.5},
            {"steps_per_day": 0},
            {"burst_duration": 0.0},
            {"regime_rate": -0.1},
            {"regime_node_fraction": 2.0},
            {"idle_fraction": 1.5},
            {"idle_noise": -1.0},
            {"replica_fraction": -0.1},
            {"replica_noise": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProfileTraceSpec(**kwargs)


class TestGenerators:
    def test_profile_paths_shape(self):
        spec = ProfileTraceSpec(num_profiles=4)
        paths = generate_profile_paths(spec, 100, np.random.default_rng(0))
        assert paths.shape == (100, 4)

    def test_memberships_in_range(self):
        spec = ProfileTraceSpec(num_profiles=3, churn=0.1)
        members = generate_memberships(spec, 50, 20, np.random.default_rng(0))
        assert members.min() >= 0
        assert members.max() < 3

    def test_zero_churn_static_membership(self):
        spec = ProfileTraceSpec(num_profiles=3, churn=0.0)
        members = generate_memberships(spec, 50, 20, np.random.default_rng(0))
        assert (members == members[0]).all()

    def test_high_churn_changes_membership(self):
        spec = ProfileTraceSpec(num_profiles=3, churn=0.5)
        members = generate_memberships(spec, 50, 20, np.random.default_rng(0))
        assert not (members == members[0]).all()

    def test_bursts_zero_rate(self):
        spec = ProfileTraceSpec(burst_rate=0.0)
        bursts = generate_bursts(spec, 30, 10, np.random.default_rng(0))
        assert (bursts == 0).all()

    def test_bursts_positive_rate(self):
        spec = ProfileTraceSpec(
            burst_rate=0.2, burst_magnitude=0.5, burst_duration=3.0
        )
        bursts = generate_bursts(spec, 200, 10, np.random.default_rng(0))
        assert bursts.max() > 0
        assert (bursts >= 0).all()

    def test_regime_events_disabled(self):
        spec = ProfileTraceSpec(regime_rate=0.0)
        events = draw_regime_events(spec, 100, np.random.default_rng(0))
        assert not events.any()

    def test_regime_events_shift_levels(self):
        spec = ProfileTraceSpec(regime_rate=0.0, ar_scale=0.0,
                                diurnal_amplitude=0.0)
        rng = np.random.default_rng(0)
        events = np.zeros(100, dtype=bool)
        events[50] = True
        paths = generate_profile_paths(spec, 100, rng, events)
        # Constant before and after the event, different levels (w.h.p.).
        assert np.allclose(paths[:50], paths[0])
        assert np.allclose(paths[50:], paths[50])

    def test_trace_in_unit_range(self):
        spec = ProfileTraceSpec(burst_rate=0.05)
        trace = generate_resource_trace(spec, 100, 20, np.random.default_rng(0))
        assert trace.min() >= 0.0
        assert trace.max() <= 1.0

    def test_trace_reproducible(self):
        spec = ProfileTraceSpec()
        a = generate_resource_trace(spec, 50, 10, np.random.default_rng(5))
        b = generate_resource_trace(spec, 50, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_idle_fraction_produces_low_variance_nodes(self):
        spec = ProfileTraceSpec(idle_fraction=0.5, idle_level=0.02)
        trace = generate_resource_trace(spec, 200, 20, np.random.default_rng(1))
        stds = trace.std(axis=0)
        assert (stds < 0.01).sum() >= 8

    def test_replica_fraction_produces_correlated_pairs(self):
        spec = ProfileTraceSpec(
            replica_fraction=1.0, churn=0.0, num_profiles=1,
            noise_scale=0.05, diurnal_amplitude=0.2,
        )
        trace = generate_resource_trace(spec, 300, 6, np.random.default_rng(2))
        corr = np.corrcoef(trace, rowvar=False)
        # All replicas of one profile: essentially perfectly correlated.
        assert np.min(corr) > 0.99


class TestDatasetLoaders:
    @pytest.mark.parametrize("loader", [
        load_alibaba_like, load_bitbrains_like, load_google_like,
    ])
    def test_cluster_loader_contract(self, loader):
        ds = loader(num_nodes=20, num_steps=100)
        assert ds.num_nodes == 20
        assert ds.num_steps == 100
        assert ds.resource_names == ("cpu", "memory")
        assert ds.data.min() >= 0.0
        assert ds.data.max() <= 1.0

    def test_sensor_loader(self):
        ds = load_sensor_like(num_nodes=10, num_steps=100)
        assert ds.resource_names == ("temperature", "humidity")

    def test_sensor_strongly_correlated_vs_cluster(self):
        sensor = load_sensor_like(num_nodes=20, num_steps=600)
        cluster = load_google_like(num_nodes=20, num_steps=600)
        sensor_frac = fraction_above(sensor.resource("temperature"), 0.5)
        cluster_frac = fraction_above(cluster.resource("cpu"), 0.5)
        assert sensor_frac > 0.9
        assert cluster_frac < 0.5

    def test_reproducible_by_seed(self):
        a = load_alibaba_like(num_nodes=10, num_steps=50, seed=3)
        b = load_alibaba_like(num_nodes=10, num_steps=50, seed=3)
        np.testing.assert_array_equal(a.data, b.data)
        c = load_alibaba_like(num_nodes=10, num_steps=50, seed=4)
        assert not np.array_equal(a.data, c.data)
