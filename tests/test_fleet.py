"""Tests for the columnar FleetState core and the per-node oracle's
views over it.

Covers the FleetState columns themselves, the oracle's LocalNode↔
FleetState view equivalence (hypothesis property: a fleet-backed node
behaves bit-identically to a self-contained node on any decision
sequence), and the transport-channel edge cases of
``Channel.record_deliveries``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collection_oracle import (
    AdaptiveTransmissionPolicy,
    CentralStore,
    CollectionSimulation,
    LocalNode,
    UniformTransmissionPolicy,
    assert_same_columns,
)
from repro.core.config import TransmissionConfig
from repro.exceptions import SimulationError
from repro.simulation.collection import collect
from repro.simulation.fleet import (
    FleetState,
    merge_collection_shards,
    shard_slices,
)
from repro.simulation.transport import Channel, PerNodeMessages, TransportStats


class TestFleetState:
    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            FleetState(0)

    def test_lazy_dimension(self):
        fleet = FleetState(3)
        assert fleet.dim is None
        assert fleet.stored is None
        fleet.ensure_dim(2)
        assert fleet.dim == 2
        assert fleet.stored.shape == (3, 2)

    def test_dimension_is_fixed(self):
        fleet = FleetState(2, 1)
        fleet.ensure_dim(1)  # same d: fine
        with pytest.raises(SimulationError):
            fleet.ensure_dim(3)

    def test_from_run_columns(self):
        decisions = np.array([
            [1, 1, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ])
        stored = np.zeros((3, 4, 1))
        stored[-1] = [[0.1], [0.2], [0.3], [0.4]]
        fleet = FleetState.from_run(stored, decisions)
        np.testing.assert_array_equal(fleet.times, [3, 3, 3, 3])
        np.testing.assert_array_equal(fleet.observed, [True, True, True, False])
        # Last slot with a 1, per node; -1 for the silent node.
        np.testing.assert_array_equal(fleet.last_update, [2, 1, 0, -1])
        # Silent node's stored value untouched (stays zero-initialized).
        np.testing.assert_array_equal(
            fleet.stored, [[0.1], [0.2], [0.3], [0.0]]
        )
        np.testing.assert_array_equal(fleet.message_counts, [2, 2, 1, 0])
        assert np.isnan(fleet.policy_state).all()

    def test_from_run_snapshot(self):
        rng = np.random.default_rng(0)
        stored = rng.random((6, 3, 2))
        decisions = rng.integers(0, 2, size=(6, 3))
        fleet = FleetState.from_run(stored, decisions)
        np.testing.assert_array_equal(
            fleet.message_counts, decisions.sum(axis=0)
        )
        sent = decisions.any(axis=0)
        np.testing.assert_array_equal(
            fleet.stored[sent], stored[-1][sent]
        )


class TestShardHelpers:
    @given(st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_shard_slices_partition(self, num_nodes, shards):
        if shards > num_nodes:
            with pytest.raises(SimulationError):
                shard_slices(num_nodes, shards)
            return
        slices = shard_slices(num_nodes, shards)
        assert slices[0][0] == 0 and slices[-1][1] == num_nodes
        sizes = []
        for (lo, hi), (next_lo, _) in zip(slices, slices[1:]):
            assert hi == next_lo  # contiguous
        for lo, hi in slices:
            assert hi > lo
            sizes.append(hi - lo)
        assert max(sizes) - min(sizes) <= 1

    def test_merge_returns_a_lone_shard_uncopied(self):
        stored, decisions = np.zeros((4, 2, 1)), np.zeros((4, 2), dtype=int)
        merged = merge_collection_shards([(stored, decisions)])
        assert merged[0] is stored and merged[1] is decisions

    def test_merge_accepts_tuples_and_results(self):
        a = (np.zeros((4, 2, 1)), np.zeros((4, 2), dtype=int))
        b = (np.ones((4, 3, 1)), np.ones((4, 3), dtype=int))
        stored, decisions = merge_collection_shards([a, b])
        assert stored.shape == (4, 5, 1)
        assert decisions.shape == (4, 5)
        np.testing.assert_array_equal(decisions[:, :2], 0)
        np.testing.assert_array_equal(decisions[:, 2:], 1)


def _reference_node_model(values, policy):
    """The pre-refactor LocalNode semantics, transcribed directly."""
    stored = None
    out_decisions, out_stored, times = [], [], []
    time = 0
    for x in values:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if stored is None:
            policy.first_transmission()
            transmit = True
        else:
            transmit = policy.decide(x, stored)
        time += 1
        if transmit:
            stored = x.copy()
        out_decisions.append(int(transmit))
        out_stored.append(stored.copy())
        times.append(time)
    return out_decisions, out_stored, times


class TestLocalNodeViewEquivalence:
    """FleetState-backed LocalNode ≡ the historical per-object node."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_view_matches_reference_model(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 6))
        num_steps = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 3))
        budget = float(rng.uniform(0.05, 1.0))
        adaptive = bool(rng.integers(0, 2))
        trace = rng.random((num_steps, num_nodes, dim))

        def make_policy():
            if adaptive:
                return AdaptiveTransmissionPolicy(
                    TransmissionConfig(budget=budget)
                )
            return UniformTransmissionPolicy(budget)

        fleet = FleetState(num_nodes)
        view_nodes = [
            LocalNode(i, make_policy(), fleet)
            for i in range(num_nodes)
        ]
        for i, node in enumerate(view_nodes):
            ref_decisions, ref_stored, ref_times = _reference_node_model(
                trace[:, i], make_policy()
            )
            for t in range(num_steps):
                message = node.observe(trace[t, i])
                assert (message is not None) == bool(ref_decisions[t])
                np.testing.assert_array_equal(
                    node.stored_value, ref_stored[t]
                )
                assert node.time == ref_times[t]
            # The fleet columns agree with the view's answers.
            np.testing.assert_array_equal(fleet.stored[i], ref_stored[-1])
            assert fleet.times[i] == num_steps
            assert fleet.observed[i]

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_standalone_node_matches_fleet_backed(self, seed):
        rng = np.random.default_rng(seed)
        num_steps = int(rng.integers(1, 50))
        budget = float(rng.uniform(0.05, 1.0))
        values = rng.random((num_steps, 1))

        standalone = LocalNode(
            0,
            AdaptiveTransmissionPolicy(TransmissionConfig(budget=budget)),
            FleetState(1),
        )
        fleet = FleetState(3)
        backed = LocalNode(
            1,
            AdaptiveTransmissionPolicy(TransmissionConfig(budget=budget)),
            fleet,
        )
        for t in range(num_steps):
            a = standalone.observe(values[t])
            b = backed.observe(values[t])
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            standalone.stored_value, backed.stored_value
        )
        assert standalone.time == backed.time
        np.testing.assert_array_equal(
            standalone.policy.decisions, backed.policy.decisions
        )
        # Only the backed node's column moved.
        assert fleet.observed[1] and not fleet.observed[0]

    def test_policy_state_column_mirrors_queue(self):
        fleet = FleetState(1)
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.4))
        node = LocalNode(0, policy, fleet)
        for x in (0.1, 0.5, 0.9, 0.2):
            node.observe(np.array([x]))
            assert fleet.policy_state[0] == policy.queue_length

    def test_store_and_nodes_share_one_fleet(self):
        fleet = FleetState(2, 1)
        store = CentralStore(fleet)
        node = LocalNode(0, UniformTransmissionPolicy(1.0), fleet)
        node.observe(np.array([0.7]))
        # The node's transmission is already the store's value: one array.
        assert store.values[0, 0] == 0.7
        np.testing.assert_array_equal(store.last_update, [0, -1])

    def test_continuation_run_keeps_one_time_base(self):
        # Across two runs the store and the node views must write
        # last_update on the same (fleet) clock, so staleness stays
        # meaningful.
        def factory(i):
            if i == 2:
                return UniformTransmissionPolicy(0.05)  # mostly silent
            return AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.4))

        rng = np.random.default_rng(3)
        sim = CollectionSimulation(3, factory)
        first = sim.run(rng.random((12, 3)))
        second = sim.run(rng.random((12, 3)))
        decisions = np.concatenate([first.decisions, second.decisions])
        for i in range(3):
            sent = np.flatnonzero(decisions[:, i])
            assert sim.fleet.last_update[i] == sent[-1]
        # Every node reported, and no report is newer than the last
        # slot, so staleness now - last_update is defined and >= 0.
        now = int(sim.fleet.times.max()) - 1
        assert (sim.fleet.last_update >= 0).all()
        assert (sim.fleet.last_update <= now).all()

    def test_batched_collection_fills_columns(self):
        # The fleet Engine.run derives from a backend's result
        # (FleetState.from_run) holds the columns the per-node loop
        # writes, one node at a time.
        trace = np.random.default_rng(1).random((30, 5))
        config = TransmissionConfig(budget=0.3)
        sim = CollectionSimulation(
            5, lambda i: AdaptiveTransmissionPolicy(config)
        )
        result = sim.run(trace)
        batched = collect(trace, config)
        fleet = FleetState.from_run(batched.stored, batched.decisions)
        assert fleet.dim == sim.fleet.dim == 1
        assert_same_columns(fleet, sim.fleet)
        # Channel stats and fleet counters are the same memory.
        assert sim.channel.stats.per_node_messages == {
            i: int(c)
            for i, c in enumerate(result.decisions.sum(axis=0))
            if c
        }
        np.testing.assert_array_equal(
            sim.fleet.policy_state,
            [node.policy.queue_length for node in sim.nodes],
        )


class TestChannelEdgeCases:
    @staticmethod
    def _deliver(channel, ids, num_nodes, dim=1):
        return channel.record_deliveries(
            np.asarray(ids, dtype=np.int64), num_nodes, dim
        )

    def test_zero_message_slot(self):
        channel = Channel(np.zeros(3, dtype=np.int64))
        counts = self._deliver(channel, [], 3)
        np.testing.assert_array_equal(counts, [0, 0, 0])
        assert channel.stats.messages == 0
        assert channel.stats.payload_floats == 0
        assert len(channel.stats.per_node_messages) == 0
        assert dict(channel.stats.per_node_messages) == {}

    def test_payload_bytes_custom_width(self):
        channel = Channel(np.zeros(2, dtype=np.int64))
        self._deliver(channel, [0, 1], 2, dim=3)
        assert channel.stats.payload_floats == 6
        assert channel.stats.payload_bytes() == 48          # 8 bytes/float
        assert channel.stats.payload_bytes(bytes_per_float=4) == 24
        assert channel.stats.payload_bytes(bytes_per_float=2) == 12

    def test_per_node_counts_after_silence(self):
        channel = Channel(np.zeros(2, dtype=np.int64))
        for _ in range(3):
            self._deliver(channel, [0], 2)
        # Node 0 goes silent; node 1 speaks once.
        self._deliver(channel, [1], 2)
        self._deliver(channel, [], 2)  # two silent slots for everyone
        self._deliver(channel, [], 2)
        assert channel.stats.per_node_messages == {0: 3, 1: 1}
        assert channel.stats.messages == 4

    def test_per_node_view_mapping_semantics(self):
        channel = Channel(np.zeros(3, dtype=np.int64))
        self._deliver(channel, [2], 3)
        view = channel.stats.per_node_messages
        assert isinstance(view, PerNodeMessages)
        assert view[2] == 1
        assert view.get(0) is None        # silent node: not a key
        assert view.get(0, 0) == 0
        with pytest.raises(KeyError):
            view[0]
        with pytest.raises(KeyError):
            view[99]
        assert list(view) == [2]
        assert len(view) == 1
        assert view == {2: 1}
        assert view != {2: 2}
        np.testing.assert_array_equal(view.as_array()[:3], [0, 0, 1])

    def test_counters_advance_only_in_channel(self):
        # The public counters are read-only: a second accounting site
        # (the historical double-counting risk) is an AttributeError.
        stats = Channel(np.zeros(1, dtype=np.int64)).stats
        with pytest.raises(AttributeError):
            stats.messages = 5
        with pytest.raises(AttributeError):
            stats.payload_floats = 5
        with pytest.raises(AttributeError):
            stats.per_node_messages = {}

    def test_per_node_view_is_live_across_growth(self):
        # Like the dict it replaces, the mapping is a live reference:
        # counts delivered after the view was taken — even after fleet
        # growth reallocates the column the stats adopt — show through.
        fleet = FleetState(1, 1)
        channel = Channel(fleet.message_counts)
        self._deliver(channel, [0], 1)
        view = channel.stats.per_node_messages
        fleet.grow(500)  # reallocates message_counts
        channel.stats.adopt_column(fleet.message_counts)
        self._deliver(channel, [500], 501)
        self._deliver(channel, [0], 501)
        assert view[500] == 1
        assert view == {0: 2, 500: 1}
        np.testing.assert_array_equal(
            fleet.message_counts[[0, 500]], [2, 1]
        )

    def test_fleet_backed_counts_reject_foreign_nodes(self):
        fleet = FleetState(2, 1)
        channel = Channel(node_counts=fleet.message_counts)
        self._deliver(channel, [1], 2)
        assert fleet.message_counts[1] == 1
        with pytest.raises(SimulationError):
            self._deliver(channel, [2], 3)

    def test_count_column_matches_per_slot_deliveries(self):
        # Engine.run derives its stats from per-node counts; they must
        # agree with counting each slot's deliveries, as a session does.
        channel = Channel(np.zeros(3, dtype=np.int64))
        for ids in ([0, 2], [0], [0], [0]):
            self._deliver(channel, ids, 3, dim=2)
        counted = TransportStats.from_node_counts(
            np.array([4, 0, 1], dtype=np.int64), floats_per_message=2
        )
        assert counted.messages == channel.stats.messages
        assert counted.payload_floats == channel.stats.payload_floats
        assert counted.per_node_messages == channel.stats.per_node_messages

    def test_from_node_counts_derives_consistent_totals(self):
        counts = np.array([2, 0, 1], dtype=np.int64)
        stats = TransportStats.from_node_counts(counts, floats_per_message=2)
        assert stats.messages == 3
        assert stats.payload_floats == 6
        assert stats.payload_bytes() == 48
        assert stats.per_node_messages == {0: 2, 2: 1}
        # Adopted, not copied: the column and the stats stay one array.
        counts[1] += 1  # (simulating the owner's channel counting)
        assert stats.per_node_messages.get(1) == 1

    def test_adopting_nonzero_counts_requires_payload_info(self):
        # Without floats_per_message the payload would silently read 0
        # while messages is non-zero — refuse the inconsistent state.
        with pytest.raises(SimulationError):
            TransportStats(node_counts=np.array([1], dtype=np.int64))
        # A fresh (all-zero) column is fine: nothing to be inconsistent.
        zeros = np.zeros(3, dtype=np.int64)
        assert TransportStats(node_counts=zeros).messages == 0
