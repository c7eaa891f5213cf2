"""Tests for the collection backends, the slot-kernel loop they share,
and the per-node oracle loop they are pinned against."""

import numpy as np
import pytest

from collection_oracle import (
    AdaptiveTransmissionPolicy,
    CollectionSimulation,
    UniformTransmissionPolicy,
)
from repro.core.config import TransmissionConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.registry import SLOT_KERNELS
from repro.simulation.collection import collect, run_slot_kernel
from repro.simulation.transport import Channel


class TestChannel:
    def test_counts_messages_and_payload(self):
        channel = Channel(np.zeros(2, dtype=np.int64))
        channel.record_deliveries(np.array([0, 1]), 2, 2)
        channel.record_deliveries(np.array([0]), 2, 2)
        assert channel.stats.messages == 3
        assert channel.stats.payload_floats == 6
        assert channel.stats.per_node_messages == {0: 2, 1: 1}
        assert channel.stats.payload_bytes() == 48


class TestCollectionSimulation:
    def _trace(self, steps=60, nodes=8, seed=0):
        return np.random.default_rng(seed).random((steps, nodes))

    def test_object_engine_runs(self):
        trace = self._trace()
        sim = CollectionSimulation(
            8, lambda i: AdaptiveTransmissionPolicy(TransmissionConfig())
        )
        result = sim.run(trace)
        assert result.stored.shape == (60, 8, 1)
        assert result.decisions[0].sum() == 8  # forced initial sends
        assert sim.channel.stats.messages == result.decisions.sum()

    def test_node_count_mismatch(self):
        sim = CollectionSimulation(
            4, lambda i: UniformTransmissionPolicy(0.5)
        )
        with pytest.raises(ConfigurationError):
            sim.run(self._trace(nodes=5))

    def test_vectorized_adaptive_matches_object_engine(self):
        trace = self._trace(steps=120, nodes=6, seed=1)
        config = TransmissionConfig(budget=0.3)
        vectorized = collect(trace, config)
        sim = CollectionSimulation(
            6, lambda i: AdaptiveTransmissionPolicy(config)
        )
        object_level = sim.run(trace)
        np.testing.assert_array_equal(
            vectorized.decisions, object_level.decisions
        )
        np.testing.assert_allclose(
            vectorized.stored, object_level.stored
        )

    def test_vectorized_uniform_matches_object_engine(self):
        trace = self._trace(steps=80, nodes=5, seed=2)
        vectorized = run_slot_kernel(
            SLOT_KERNELS.create("uniform", TransmissionConfig(budget=0.25)),
            trace,
        )
        sim = CollectionSimulation(
            5, lambda i: UniformTransmissionPolicy(0.25, phase=0.0)
        )
        object_level = sim.run(trace)
        np.testing.assert_array_equal(
            vectorized.decisions, object_level.decisions
        )
        np.testing.assert_allclose(vectorized.stored, object_level.stored)

    def test_adaptive_frequency_tracks_budget(self):
        rng = np.random.default_rng(3)
        # Smooth random-walk per node so there is always some drift.
        steps = np.cumsum(rng.normal(0, 0.02, size=(2000, 10)), axis=0)
        trace = np.clip(0.5 + steps, 0, 1)
        for budget in (0.1, 0.3, 0.5):
            result = collect(trace, TransmissionConfig(budget=budget))
            assert result.empirical_frequency == pytest.approx(
                budget, abs=0.01
            )

    def test_uniform_frequency_exact(self):
        trace = self._trace(steps=1000, nodes=4)
        result = collect(
            trace, TransmissionConfig(budget=0.2), backend="uniform"
        )
        assert result.empirical_frequency == pytest.approx(0.2, abs=0.01)

    def test_adaptive_stored_error_bounded_by_staleness(self):
        trace = self._trace(steps=200, nodes=6, seed=4)
        result = collect(trace, TransmissionConfig())
        # Wherever a transmission happened, stored == truth.
        sent = result.decisions.astype(bool)
        for t in range(200):
            np.testing.assert_allclose(
                result.stored[t, sent[t], 0], trace[t, sent[t]]
            )

    def test_budget_one_stores_everything(self):
        trace = self._trace(steps=50, nodes=4)
        result = collect(trace, TransmissionConfig(budget=1.0))
        np.testing.assert_allclose(result.stored[:, :, 0], trace)

    def test_per_node_frequency_shape(self):
        trace = self._trace()
        result = collect(
            trace, TransmissionConfig(budget=0.5), backend="uniform"
        )
        assert result.per_node_frequency().shape == (8,)

    def test_uniform_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            collect(
                self._trace(), TransmissionConfig(budget=0.0),
                backend="uniform",
            )

    def test_state_is_copied_and_shape_checked(self):
        kernel = SLOT_KERNELS.create("uniform", TransmissionConfig(0.5))
        phases = np.full(8, 0.5)
        run_slot_kernel(kernel, self._trace(), phases)
        np.testing.assert_array_equal(phases, 0.5)
        with pytest.raises(SimulationError, match="shape"):
            run_slot_kernel(kernel, self._trace(), phases[:7])
