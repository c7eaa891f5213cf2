"""Tests for the collection backends and the per-node oracle they are
pinned against (nodes, store, channel, object loop)."""

import numpy as np
import pytest

from collection_oracle import (
    AdaptiveTransmissionPolicy,
    CentralStore,
    CollectionSimulation,
    LocalNode,
    Measurement,
    MessageChannel,
    UniformTransmissionPolicy,
)
from repro.core.config import TransmissionConfig
from repro.exceptions import ConfigurationError, DataError, SimulationError
from repro.simulation.collection import (
    simulate_adaptive_collection,
    simulate_uniform_collection,
)
from repro.simulation.transport import Channel


class TestLocalNode:
    def test_first_observation_always_transmits(self):
        node = LocalNode(0, AdaptiveTransmissionPolicy())
        message = node.observe(np.array([0.5]))
        assert message is not None
        assert message.node == 0
        assert message.time == 0

    def test_stored_value_mirrors_transmissions(self):
        node = LocalNode(1, UniformTransmissionPolicy(1.0))
        node.observe(np.array([0.5]))
        node.observe(np.array([0.7]))
        assert node.stored_value[0] == 0.7

    def test_stored_value_stale_when_silent(self):
        # Budget so small the node stays silent after the first send.
        node = LocalNode(0, UniformTransmissionPolicy(0.01))
        node.observe(np.array([0.5]))
        for _ in range(5):
            node.observe(np.array([0.9]))
        assert node.stored_value[0] == 0.5

    def test_non_finite_rejected(self):
        node = LocalNode(0, UniformTransmissionPolicy(1.0))
        with pytest.raises(DataError):
            node.observe(np.array([np.nan]))

    def test_stored_before_observe_raises(self):
        node = LocalNode(0, UniformTransmissionPolicy(1.0))
        with pytest.raises(SimulationError):
            node.stored_value

    def test_reset(self):
        node = LocalNode(0, UniformTransmissionPolicy(1.0))
        node.observe(np.array([0.5]))
        node.reset()
        assert node.time == 0
        assert node.policy.decisions.size == 0


class TestChannel:
    def test_counts_messages_and_payload(self):
        channel = Channel(np.zeros(2, dtype=np.int64))
        channel.record_deliveries(np.array([0, 1]), 2, 2)
        channel.record_deliveries(np.array([0]), 2, 2)
        assert channel.stats.messages == 3
        assert channel.stats.payload_floats == 6
        assert channel.stats.per_node_messages == {0: 2, 1: 1}
        assert channel.stats.payload_bytes() == 48

    def test_drain_empties_inbox(self):
        channel = MessageChannel(np.zeros(1, dtype=np.int64))
        channel.send(Measurement(node=0, time=0, value=np.zeros(1)))
        assert channel.pending == 1
        drained = channel.drain()
        assert len(drained) == 1
        assert channel.pending == 0
        assert channel.drain() == []


class TestCentralStore:
    def test_staleness_rule(self):
        store = CentralStore(2, 1)
        store.apply([Measurement(node=0, time=0, value=np.array([0.1])),
                     Measurement(node=1, time=0, value=np.array([0.2]))], 0)
        store.apply([Measurement(node=0, time=1, value=np.array([0.3]))], 1)
        values = store.values
        assert values[0, 0] == 0.3
        assert values[1, 0] == 0.2  # z_{1,1} = x_{1,0}
        np.testing.assert_array_equal(store.staleness(1), [0, 1])

    def test_initialized_flag(self):
        store = CentralStore(2, 1)
        assert not store.initialized
        store.apply([Measurement(node=0, time=0, value=np.array([0.1]))], 0)
        assert not store.initialized
        store.apply([Measurement(node=1, time=1, value=np.array([0.1]))], 1)
        assert store.initialized

    def test_staleness_before_initialized(self):
        store = CentralStore(2, 1)
        with pytest.raises(SimulationError):
            store.staleness(0)

    def test_time_monotonicity(self):
        store = CentralStore(1, 1)
        store.apply([], 5)
        with pytest.raises(SimulationError):
            store.apply([], 3)

    def test_unknown_node(self):
        store = CentralStore(1, 1)
        with pytest.raises(SimulationError):
            store.apply([Measurement(node=5, time=0, value=np.zeros(1))], 0)

    def test_dimension_mismatch(self):
        store = CentralStore(1, 2)
        with pytest.raises(SimulationError):
            store.apply([Measurement(node=0, time=0, value=np.zeros(1))], 0)

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            CentralStore(0, 1)


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
        assert result.stats.messages == result.decisions.sum()

    def test_node_count_mismatch(self):
        sim = CollectionSimulation(
            4, lambda i: UniformTransmissionPolicy(0.5)
        )
        with pytest.raises(ConfigurationError):
            sim.run(self._trace(nodes=5))

    def test_vectorized_adaptive_matches_object_engine(self):
        trace = self._trace(steps=120, nodes=6, seed=1)
        config = TransmissionConfig(budget=0.3)
        vectorized = simulate_adaptive_collection(trace, config)
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
        vectorized = simulate_uniform_collection(
            trace, 0.25, stagger=False
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
            result = simulate_adaptive_collection(
                trace, TransmissionConfig(budget=budget)
            )
            assert result.empirical_frequency == pytest.approx(
                budget, abs=0.01
            )

    def test_uniform_frequency_exact(self):
        trace = self._trace(steps=1000, nodes=4)
        result = simulate_uniform_collection(trace, 0.2, stagger=True)
        assert result.empirical_frequency == pytest.approx(0.2, abs=0.01)

    def test_adaptive_stored_error_bounded_by_staleness(self):
        trace = self._trace(steps=200, nodes=6, seed=4)
        result = simulate_adaptive_collection(trace, TransmissionConfig())
        # Wherever a transmission happened, stored == truth.
        sent = result.decisions.astype(bool)
        for t in range(200):
            np.testing.assert_allclose(
                result.stored[t, sent[t], 0], trace[t, sent[t]]
            )

    def test_budget_one_stores_everything(self):
        trace = self._trace(steps=50, nodes=4)
        result = simulate_adaptive_collection(
            trace, TransmissionConfig(budget=1.0)
        )
        np.testing.assert_allclose(result.stored[:, :, 0], trace)

    def test_per_node_frequency_shape(self):
        trace = self._trace()
        result = simulate_uniform_collection(trace, 0.5)
        assert result.per_node_frequency().shape == (8,)

    def test_uniform_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            simulate_uniform_collection(self._trace(), 0.0)
