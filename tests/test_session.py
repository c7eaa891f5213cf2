"""Tests for the stateful serving API (repro.session.StreamSession).

Pins the slot-kernel path **bit-identical** to two independent oracles
on randomized traces (hypothesis) — the registered batch collection
backends for full slots, and the per-node object loop of
``collection_oracle`` for partial slots and multi-resource fleets — and
covers the documented partial-slot and late-arrival semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collection_oracle
from repro.api import Engine
from repro.checkpoint import state_equal
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.exceptions import (
    ConfigurationError,
    DataError,
    NotFittedError,
)
from repro.registry import (
    COLLECTION_BACKENDS,
    SLOT_KERNELS,
    register_slot_kernel,
)
from repro.session import StreamSession
from repro.simulation.collection import run_slot_kernel
from repro.simulation.transport import TransportStats
from repro.transmission.uniform import uniform_transmit_slot

POLICIES = ("adaptive", "uniform", "deadband", "perfect")


def config(budget=0.3, initial=15, horizon=2, clusters=2, model="sample_hold"):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=budget),
        clustering=ClusteringConfig(num_clusters=clusters, seed=0),
        forecasting=ForecastingConfig(
            model=model,
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


def walk_trace(steps=40, nodes=6, dims=1, seed=0):
    rng = np.random.default_rng(seed)
    trace = np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.04, (steps, nodes, dims)), axis=0),
        0, 1,
    )
    return trace[:, :, 0] if dims == 1 else trace


def batch_collection(policy, trace, transmission):
    """The registered batch backend's run of ``trace`` for ``policy``.

    The session starts every uniform accumulator at phase 0, while the
    ``uniform`` backend staggers phases, so uniform compares against
    the slot-kernel loop from the zero state.
    """
    if policy == "uniform":
        return run_slot_kernel(
            SLOT_KERNELS.create(policy, transmission), trace
        )
    return COLLECTION_BACKENDS.create(policy, trace, transmission)


def object_fleet(policy, transmission, num_nodes, dims):
    """Per-node oracle: the object-level slot.  One policy object per
    node decides through ``LocalNode.observe``; its messages cross a
    channel and a ``CentralStore`` applies them."""
    build = collection_oracle.POLICIES[policy]
    return collection_oracle.CollectionSimulation(
        num_nodes, lambda i: build(transmission), dim=dims
    )


def assert_fleet_matches(oracle, session):
    fleet = session.fleet
    collection_oracle.assert_same_columns(fleet, oracle.fleet)
    np.testing.assert_array_equal(
        fleet.policy_state,
        [node.policy.fleet_scalar_state for node in oracle.nodes],
    )


class TestVectorizedObjectEquivalence:
    """The slot-kernel path is bit-identical to the batch backends and
    to a per-node loop of policy objects."""

    @pytest.mark.parametrize("policy", POLICIES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_full_slots_bit_identical(self, policy, seed):
        cfg = config()
        trace = walk_trace(steps=30, seed=seed)
        session = StreamSession(cfg, 6, 1, policy=policy)
        batch = batch_collection(policy, trace, cfg.transmission)
        for t in range(trace.shape[0]):
            output = session.ingest(trace[t])
            np.testing.assert_array_equal(output.stored, batch.stored[t])
            np.testing.assert_array_equal(
                output.transport.per_node_messages.as_array(),
                batch.decisions[t],
            )
        np.testing.assert_array_equal(
            session.fleet.message_counts, batch.decisions.sum(axis=0)
        )
        assert session.transport_stats.messages == int(
            batch.decisions.sum()
        )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_slot_kernel_loop_matches_session(self, policy, dtype):
        # A session and run_slot_kernel from the zero state make the
        # same kernel call per slot, so they agree bit for bit.
        cfg = PipelineConfig(
            transmission=TransmissionConfig(budget=0.3, deadband_delta=0.03),
            clustering=config().clustering,
            forecasting=config().forecasting,
            dtype=dtype,
        )
        trace = walk_trace(steps=30, nodes=7, dims=2, seed=11).astype(dtype)
        loop = run_slot_kernel(
            SLOT_KERNELS.create(policy, cfg.transmission), trace
        )
        session = StreamSession(cfg, 7, 2, policy=policy)
        for t in range(trace.shape[0]):
            output = session.ingest(trace[t])
            assert output.stored.dtype == loop.stored.dtype
            np.testing.assert_array_equal(output.stored, loop.stored[t])
            np.testing.assert_array_equal(
                output.transport.per_node_messages.as_array(),
                loop.decisions[t],
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_partial_slots_bit_identical(self, seed):
        cfg = config()
        trace = walk_trace(steps=25, nodes=8, seed=seed)
        for policy in POLICIES:
            rng = np.random.default_rng(seed)
            session = StreamSession(cfg, 8, 1, policy=policy)
            oracle = object_fleet(policy, cfg.transmission, 8, 1)
            for t in range(trace.shape[0]):
                ids = np.flatnonzero(rng.random(8) < 0.7)
                if ids.size == 0:
                    ids = np.asarray([int(rng.integers(8))])
                session.ingest(trace[t][ids], node_ids=ids)
                oracle.ingest(trace[t][ids][:, np.newaxis], ids, t)
                assert_fleet_matches(oracle, session)

    def test_multiresource_bit_identical(self):
        cfg = config()
        trace = walk_trace(steps=25, nodes=5, dims=3, seed=3)
        for policy in POLICIES:
            session = StreamSession(cfg, 5, 3, policy=policy)
            oracle = object_fleet(policy, cfg.transmission, 5, 3)
            for t in range(trace.shape[0]):
                session.ingest(trace[t])
                oracle.ingest(trace[t], range(5), t)
                assert_fleet_matches(oracle, session)


class TestSessionStreaming:
    """One session driven slot by slot over a live fleet."""

    @staticmethod
    def feed(seed=0, steps=50, nodes=6):
        rng = np.random.default_rng(seed)
        base = np.where(np.arange(nodes) < nodes // 2, 0.2, 0.7)
        return np.clip(
            base[None, :] + rng.normal(0, 0.02, (steps, nodes)), 0, 1
        )

    def test_tick_advances_everything(self):
        session = Engine(config(initial=20)).session(6, 1)
        data = self.feed()
        for t in range(30):
            assert session.ingest(data[t]).time == t
        assert session.time == 30
        assert session.pipeline.time == 30
        assert session.transport_stats.messages > 0

    def test_first_tick_all_transmit(self):
        session = Engine(config()).session(6, 1)
        session.ingest(self.feed()[0])
        assert session.transport_stats.messages == 6

    def test_empirical_frequency_near_budget(self):
        rng = np.random.default_rng(1)
        walk = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.02, (400, 5)), axis=0), 0, 1
        )
        session = Engine(config(budget=0.3)).session(5, 1)
        for t in range(400):
            session.ingest(walk[t])
        assert session.empirical_frequency == pytest.approx(0.3, abs=0.02)

    def test_multiresource(self):
        session = Engine(config(initial=10)).session(4, 2)
        rng = np.random.default_rng(2)
        for t in range(15):
            output = session.ingest(rng.random((4, 2)))
        assert output.node_forecasts[1].shape == (4, 2)

    def test_forecasts_after_initial_collection(self):
        session = Engine(config(initial=15)).session(6, 1)
        data = self.feed()
        for t in range(14):
            assert session.ingest(data[t]).node_forecasts is None
        for t in range(14, 25):
            output = session.ingest(data[t])
        assert output.node_forecasts[1].shape == (6, 1)

    def test_wrong_shape_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError, match="full slot"):
            session.ingest(np.zeros(5))
        with pytest.raises(DataError):
            session.ingest(np.zeros((4, 2)))
        assert session.time == 0


class TestStepOutputAlignment:
    """StepOutput carries per-slot transport deltas and timings."""

    def test_transport_delta_and_timings(self):
        session = Engine(config()).session(6, 1)
        trace = walk_trace(seed=7)
        total_messages = 0
        for t in range(20):
            output = session.ingest(trace[t])
            assert isinstance(output.transport, TransportStats)
            assert output.transport.messages <= 6  # this slot only
            total_messages += output.transport.messages
            assert output.transport.payload_floats == (
                output.transport.messages * 1
            )
            for stage in (
                "collection", "clustering", "training", "forecasting",
                "total",
            ):
                assert stage in output.timings
                assert output.timings[stage] >= 0.0
            assert output.timings["total"] >= output.timings["collection"]
        assert total_messages == session.transport_stats.messages

    def test_pipeline_only_step_leaves_fields_none(self):
        from repro.core.pipeline import OnlinePipeline

        pipeline = OnlinePipeline(4, 1, config())
        output = pipeline.step(np.zeros(4))
        assert output.transport is None
        assert output.timings is None


class TestPartialIngestion:
    def test_absent_nodes_keep_stored_values(self):
        session = Engine(config()).session(4, 1)
        session.ingest(np.asarray([0.1, 0.2, 0.3, 0.4]))
        before = session.fleet.stored.copy()
        output = session.ingest(np.asarray([0.9]), node_ids=[0])
        # Nodes 1..3 did not report: staleness keeps their values.
        np.testing.assert_array_equal(output.stored[1:], before[1:])
        assert session.time == 2

    def test_only_active_nodes_advance_clocks(self):
        session = Engine(config()).session(4, 1)
        session.ingest(np.asarray([0.1, 0.2, 0.3, 0.4]))
        session.ingest(np.asarray([0.5, 0.6]), node_ids=[1, 3])
        np.testing.assert_array_equal(
            session.fleet.times, np.asarray([1, 2, 1, 2])
        )

    def test_never_reporting_node_stays_zero(self):
        session = Engine(config()).session(3, 1)
        output = session.ingest(np.asarray([0.7, 0.8]), node_ids=[0, 1])
        assert output.stored[2, 0] == 0.0
        assert not session.fleet.observed[2]

    def test_duplicate_ids_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError, match="duplicate"):
            session.ingest(np.asarray([0.1, 0.2]), node_ids=[1, 1])

    def test_out_of_range_ids_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError, match="node_ids"):
            session.ingest(np.asarray([0.1]), node_ids=[4])

    def test_row_count_mismatch_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError, match="node_ids"):
            session.ingest(np.asarray([0.1, 0.2]), node_ids=[1])

    def test_partial_without_ids_rejected(self):
        session = Engine(config()).session(4, 1)
        with pytest.raises(DataError, match="full slot"):
            session.ingest(np.asarray([0.1, 0.2]))

    def test_non_finite_rejected(self):
        session = Engine(config()).session(2, 1)
        with pytest.raises(DataError, match="finite"):
            session.ingest(np.asarray([0.1, np.nan]))


class TestLateArrivals:
    def make(self, reorder_window=2):
        session = Engine(config()).session(4, 1, reorder_window=reorder_window)
        session.ingest(np.asarray([0.1, 0.2, 0.3, 0.4]))
        session.ingest(np.asarray([0.5, 0.6]), node_ids=[0, 1])
        return session  # frontier at 2; nodes 2,3 last heard at slot 0

    def test_late_within_window_applied(self):
        session = self.make()
        messages = session.transport_stats.messages
        result = session.ingest(np.asarray([0.9]), node_ids=[2], t=1)
        assert result is None  # late arrivals close no slot
        assert session.late_applied == 1
        assert session.late_dropped == 0
        assert session.fleet.stored[2, 0] == 0.9
        assert session.fleet.last_update[2] == 1
        assert session.transport_stats.messages == messages + 1
        # The applied value is what the next frontier slot clusters on.
        output = session.ingest(np.asarray([0.7]), node_ids=[0])
        assert output.stored[2, 0] == 0.9

    def test_late_superseded_dropped(self):
        session = self.make()
        # The store last heard from node 0 at slot >= 0, so slot-0 data
        # is not newer: dropped, store untouched.
        before = session.fleet.stored[0, 0]
        session.ingest(np.asarray([0.99]), node_ids=[0], t=0)
        assert session.late_applied == 0
        assert session.late_dropped == 1
        assert session.fleet.stored[0, 0] == before

    def test_late_outside_window_dropped(self):
        session = self.make(reorder_window=1)
        session.ingest(np.asarray([0.9]), node_ids=[2], t=0)
        assert session.late_applied == 0
        assert session.late_dropped == 1
        assert session.fleet.stored[2, 0] == 0.3

    def test_default_window_drops_everything_late(self):
        session = Engine(config()).session(2, 1)
        session.ingest(np.asarray([0.1, 0.2]))
        session.ingest(np.asarray([0.3, 0.4]))
        session.ingest(np.asarray([0.9]), node_ids=[0], t=1)
        assert session.late_applied == 0
        assert session.late_dropped == 1

    def test_future_slot_rejected(self):
        session = Engine(config()).session(2, 1)
        with pytest.raises(DataError, match="frontier"):
            session.ingest(np.asarray([0.1]), node_ids=[0], t=3)

    def test_late_policy_state_untouched(self):
        session = self.make()
        state = session.fleet.policy_state.copy()
        times = session.fleet.times.copy()
        session.ingest(np.asarray([0.9]), node_ids=[2], t=1)
        np.testing.assert_array_equal(session.fleet.policy_state, state)
        np.testing.assert_array_equal(session.fleet.times, times)


class TestForecastOnDemand:
    def test_before_forecasting_raises(self):
        session = Engine(config(initial=50)).session(3, 1)
        session.ingest(np.asarray([0.1, 0.2, 0.3]))
        with pytest.raises(NotFittedError, match="collection phase"):
            session.forecast()

    def test_horizon_selection(self):
        cfg = config(initial=10, horizon=3)
        session = Engine(cfg).session(4, 1)
        trace = walk_trace(steps=15, nodes=4, seed=9)
        for t in range(15):
            session.ingest(trace[t])
        everything = session.forecast()
        assert set(everything) == {1, 2, 3}
        subset = session.forecast(horizons=[2])
        assert set(subset) == {2}
        np.testing.assert_array_equal(subset[2], everything[2])
        assert subset[2].shape == (4, 1)
        with pytest.raises(DataError, match="horizon"):
            session.forecast(horizons=[7])


class TestSessionConstruction:
    def test_vectorized_needs_kernel(self):
        with pytest.raises(ConfigurationError, match="slot kernel"):
            StreamSession(config(), 3, 1, policy="morse")

    def test_custom_policy_is_a_slot_kernel_registration(self):
        # A staggered uniform sampler: each node's accumulator starts at
        # its own phase, carried in the fleet's policy_state column.
        def build(transmission):
            def kernel(x, stored, observed, state, times):
                fresh = ~observed & (times == 0)
                state[fresh] = np.arange(state.size)[fresh] / state.size
                return uniform_transmit_slot(
                    observed, state, transmission.budget
                )

            return kernel

        register_slot_kernel("staggered_uniform")(build)
        try:
            session = Engine(
                config(budget=0.5), policy="staggered_uniform"
            ).session(4, 1)
            for t in range(20):
                session.ingest(np.full(4, 0.1 * t))
        finally:
            del SLOT_KERNELS._entries["staggered_uniform"]
        # Forced first slot, then floor(phase + 0.5 * 19) crossings for
        # phases 0, 1/4, 1/2 and 3/4.
        assert session.transport_stats.messages == 4 + (9 + 9 + 10 + 10)
        assert session.snapshot().session["policy"] == "staggered_uniform"

    def test_sessions_are_independent(self):
        engine = Engine(config())
        a = engine.session(3, 1)
        b = engine.session(3, 1)
        a.ingest(np.asarray([0.1, 0.2, 0.3]))
        assert a.time == 1
        assert b.time == 0
        assert b.transport_stats.messages == 0

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSession(config(), 0, 1)
        with pytest.raises(ConfigurationError):
            StreamSession(config(), 3, 1, reorder_window=-1)

    def test_invalid_construction(self):
        engine = Engine(config())
        with pytest.raises(ConfigurationError):
            engine.session(0, 1)
        with pytest.raises(ConfigurationError):
            engine.session(3, 0)

    def test_engine_session_requires_dims(self):
        with pytest.raises(TypeError, match="num_nodes"):
            Engine(config()).session()


class TestReturnedArraysDoNotAliasState:
    """Writing into what a session returns never reaches its state.

    Two twin sessions ingest the same slots; one of them has what it
    returned written into.  Their next snapshots must still be equal.
    """

    @staticmethod
    def twins(warm_start=False, slots=20):
        cfg = PipelineConfig(
            transmission=TransmissionConfig(budget=0.3),
            clustering=ClusteringConfig(
                num_clusters=3, history_depth=3, warm_start=warm_start,
                seed=0,
            ),
            forecasting=ForecastingConfig(
                model="ar", max_horizon=2, initial_collection=10,
                retrain_interval=10,
            ),
        )
        trace = walk_trace(steps=slots + 5, nodes=40, dims=2, seed=3)
        pair = [Engine(cfg).session(40, 2) for _ in range(2)]
        for t in range(slots - 1):
            for session in pair:
                session.ingest(trace[t])
        outputs = [session.ingest(trace[slots - 1]) for session in pair]
        return pair, outputs, trace[slots:]

    @staticmethod
    def assert_same_state(pair, rest):
        assert state_equal(pair[0].snapshot().state, pair[1].snapshot().state)
        for row in rest:
            assert_same_outputs(pair[0].ingest(row), pair[1].ingest(row))
        assert state_equal(pair[0].snapshot().state, pair[1].snapshot().state)

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_assignment_centroids_are_copies(self, warm_start):
        pair, outputs, rest = self.twins(warm_start)
        for assignment in outputs[0].assignments:
            assignment.centroids[...] += 5.0
        self.assert_same_state(pair, rest)

    def test_step_forecasts_are_read_only(self):
        pair, outputs, rest = self.twins()
        factors = outputs[0].forecast_factors
        for forecast in (
            *outputs[0].node_forecasts.values(),
            factors.centroids, factors.memberships, factors.offsets,
        ):
            with pytest.raises(ValueError):
                forecast += 5
        self.assert_same_state(pair, rest)

    def test_session_forecasts_are_read_only(self, tmp_path):
        pair, _, rest = self.twins()
        pair[1] = Engine(pair[1].config).resume(
            pair[1].save(tmp_path / "twin.ckpt")
        )
        for session in pair:
            for forecast in session.forecast().values():
                with pytest.raises(ValueError):
                    forecast += 5.0
        self.assert_same_state(pair, rest)


def assert_same_outputs(a, b):
    for x, y in zip(a.assignments, b.assignments):
        np.testing.assert_array_equal(x.labels, y.labels)
        np.testing.assert_array_equal(x.centroids, y.centroids)
    for h in a.node_forecasts:
        np.testing.assert_array_equal(a.node_forecasts[h], b.node_forecasts[h])
