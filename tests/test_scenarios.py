"""Tests for the scenario engine (repro.scenarios).

Pins the subsystem's three contracts:

* an **ideal link is invisible** — a session run over ``IdealLink`` is
  bit-identical to one with no link at all, across every transmission
  policy (hypothesis);
* **message conservation** — every sent message is delivered now,
  delivered late, dropped to loss, dropped to churn, or still in
  flight, under any mix of adversities;
* **checkpoint/resume is bit-identical** mid-scenario — including
  mid-churn, with link queues and generators in flight — down to the
  whole saved state tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
)
from repro.registry import SCENARIOS
from repro.scenarios import (
    ChurnEvent,
    ChurnSchedule,
    IdealLink,
    LinkConfig,
    MembershipTrack,
    NetworkLink,
    ScenarioSpec,
    build_link,
    run_scenario,
)
from repro.scenarios.harness import resolve_scenario
from repro.scenarios.spec import TRACE_SOURCES
from repro.simulation.transport import Channel, TransportStats

POLICIES = ("adaptive", "uniform", "deadband", "perfect")


def config(budget=0.3, initial=12, horizon=2, clusters=2):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=budget),
        clustering=ClusteringConfig(num_clusters=clusters, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


def walk_trace(steps=40, nodes=8, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.04, (steps, nodes)), axis=0), 0, 1
    )


def assert_trees_equal(a, b, path=""):
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), f"{path}: key mismatch"
        for k in a:
            assert_trees_equal(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length mismatch"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


# ---------------------------------------------------------------------------
# Link configuration
# ---------------------------------------------------------------------------


class TestLinkConfig:
    def test_default_is_ideal(self):
        assert LinkConfig().is_ideal

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 0.1},
            {"burst_enter": 0.05},
            {"latency": 1},
            {"uplinks": 2},
        ],
    )
    def test_any_adversity_breaks_ideal(self, kwargs):
        assert not LinkConfig(**kwargs).is_ideal

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.0},
            {"loss": -0.1},
            {"burst_enter": 1.5},
            {"latency": -1},
            {"uplinks": -1},
            {"uplinks": 2, "uplink_capacity": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            LinkConfig(**kwargs)

    def test_build_link_dispatch(self):
        assert isinstance(build_link(LinkConfig(), 4), IdealLink)
        assert isinstance(build_link(LinkConfig(loss=0.1), 4), NetworkLink)

    def test_ideal_link_rejects_adverse_config(self):
        with pytest.raises(ConfigurationError):
            IdealLink(4, LinkConfig(latency=1))


# ---------------------------------------------------------------------------
# The ideal link is invisible (satellite 3, first pin)
# ---------------------------------------------------------------------------


class TestIdealLinkInvisible:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_to_linkless_all_policies(self, seed):
        trace = walk_trace(steps=36, nodes=8, seed=seed)
        for policy in POLICIES:
            bare = Engine(config(), policy=policy).session(8, 1)
            linked = Engine(config(), policy=policy).session(
                8, 1, link=IdealLink(8)
            )
            for t in range(trace.shape[0]):
                a = bare.ingest(trace[t][:, np.newaxis])
                b = linked.ingest(trace[t][:, np.newaxis])
                np.testing.assert_array_equal(a.stored, b.stored)
                assert a.transport.messages == b.transport.messages
                assert (a.node_forecasts is None) == (
                    b.node_forecasts is None
                )
                if a.node_forecasts is not None:
                    for h in a.node_forecasts:
                        np.testing.assert_array_equal(
                            a.node_forecasts[h], b.node_forecasts[h]
                        )
            np.testing.assert_array_equal(
                bare.fleet.stored, linked.fleet.stored
            )

    def test_ideal_link_counts_sent(self):
        link = IdealLink(5)
        session = Engine(config(), policy="uniform").session(5, 1, link=link)
        trace = walk_trace(steps=20, nodes=5, seed=1)
        for t in range(trace.shape[0]):
            session.ingest(trace[t][:, np.newaxis])
        totals = link.counters()
        assert totals["sent"] == session.transport_stats.messages
        assert totals["sent"] == totals["delivered_now"]
        assert link.is_conserved


# ---------------------------------------------------------------------------
# NetworkLink mechanics and conservation (tentpole a, satellite 2)
# ---------------------------------------------------------------------------


class TestNetworkLink:
    def payload(self, n):
        return np.arange(n, dtype=float)[:, np.newaxis]

    def test_session_num_nodes_must_match_link(self):
        with pytest.raises(ConfigurationError):
            Engine(config(), policy="uniform").session(
                6, 1, link=IdealLink(5)
            )

    def test_pure_latency_delivers_late(self):
        link = NetworkLink(4, LinkConfig(latency=2, seed=0))
        ids = np.arange(4)
        assert link.transfer(0, ids, self.payload(4)).size == 0
        assert link.in_flight == 4
        assert link.due(1) == []
        matured = link.due(2)
        assert len(matured) == 1
        origin, out_ids, values = matured[0]
        assert origin == 0
        np.testing.assert_array_equal(out_ids, ids)
        np.testing.assert_array_equal(values, self.payload(4))
        assert link.in_flight == 0
        assert link.is_conserved

    def test_latency_one_never_delivers_same_slot(self):
        link = NetworkLink(3, LinkConfig(latency=1, seed=0))
        assert link.transfer(5, np.arange(3), self.payload(3)).size == 0
        assert len(link.due(6)) == 1
        assert link.is_conserved

    def test_iid_loss_conserves(self):
        link = NetworkLink(10, LinkConfig(loss=0.5, seed=42))
        total_kept = 0
        for slot in range(50):
            kept = link.transfer(slot, np.arange(10), self.payload(10))
            total_kept += kept.size
        totals = link.counters()
        assert totals["sent"] == 500
        assert totals["delivered_now"] == total_kept
        assert 0 < totals["dropped_loss"] < 500
        assert link.is_conserved

    def test_burst_chain_conserves_and_drops(self):
        link = NetworkLink(
            8,
            LinkConfig(
                burst_enter=0.3, burst_exit=0.2, burst_loss=1.0, seed=7
            ),
        )
        for slot in range(60):
            link.transfer(slot, np.arange(8), self.payload(8))
        totals = link.counters()
        assert totals["dropped_loss"] > 0
        assert link.is_conserved

    def test_contention_backlog_fifo(self):
        # One uplink, capacity 1: 3 senders/slot build a backlog; the
        # oldest origin always drains first.
        link = NetworkLink(
            3, LinkConfig(uplinks=1, uplink_capacity=1, seed=0)
        )
        delivered_now = link.transfer(0, np.arange(3), self.payload(3))
        # capacity 1, zero latency: exactly one message arrives now.
        assert delivered_now.size == 1
        assert link.in_flight == 2
        # Nothing new sent at slot 1: due(1) is empty (the backlog only
        # drains when transfer runs), and the next transfer drains the
        # oldest queued message into the pending tray for slot 2.
        assert link.due(1) == []
        link.transfer(1, np.empty(0, dtype=np.int64), np.empty((0, 1)))
        matured = link.due(2)
        assert [m[0] for m in matured] == [0]
        assert link.is_conserved

    def test_contention_drain_capacity(self):
        link = NetworkLink(
            8, LinkConfig(uplinks=2, uplink_capacity=2, seed=0)
        )
        now = link.transfer(0, np.arange(8), self.payload(8))
        # 2 uplinks x capacity 2 drain immediately at zero latency.
        assert now.size == 4
        assert link.in_flight == 4
        assert link.is_conserved

    def test_grow_extends_burst_state(self):
        link = NetworkLink(4, LinkConfig(burst_enter=0.2, seed=0))
        link.grow(3)
        assert link.num_nodes == 7
        assert link._bad.shape == (7,)
        assert not link._bad[4:].any()

    def test_compact_drops_departed_traffic_as_churn(self):
        link = NetworkLink(4, LinkConfig(latency=3, seed=0))
        link.transfer(0, np.arange(4), self.payload(4))
        assert link.in_flight == 4
        link.compact(np.asarray([0, 2]))  # nodes 1 and 3 leave
        assert link.num_nodes == 2
        assert link.in_flight == 2
        assert link.counters()["dropped_churn"] == 2
        # Survivors were renumbered: old node 2 is now node 1.
        matured = link.due(3)
        np.testing.assert_array_equal(matured[0][1], [0, 1])
        assert link.is_conserved

    def test_compact_rebuckets_queued_traffic(self):
        link = NetworkLink(
            4, LinkConfig(uplinks=2, uplink_capacity=1, latency=1, seed=0)
        )
        link.transfer(0, np.arange(4), self.payload(4))
        # 2 drained into pending, 2 still queued.
        assert link.in_flight == 4
        link.compact(np.asarray([1, 2, 3]))
        assert link.is_conserved
        queues = link.get_state()["queues"]
        assert sum(packed is not None for packed in queues) > 0
        for queue_index, packed in enumerate(queues):
            if packed is not None:
                assert (packed["node"] % 2 == queue_index).all()

    def test_fail_nodes_drops_in_flight(self):
        link = NetworkLink(4, LinkConfig(latency=3, seed=0))
        link.transfer(0, np.arange(4), self.payload(4))
        link.fail_nodes(np.asarray([1, 2]))
        assert link.in_flight == 2
        assert link.counters()["dropped_churn"] == 2
        assert not link._bad[[1, 2]].any()
        assert link.is_conserved

    def test_state_roundtrip_continues_identically(self):
        cfg = LinkConfig(
            loss=0.1, burst_enter=0.1, burst_exit=0.4, latency=2,
            uplinks=2, uplink_capacity=2, seed=9,
        )
        a = NetworkLink(6, cfg)
        for slot in range(10):
            a.transfer(slot, np.arange(6), self.payload(6))
            a.due(slot)
        b = NetworkLink(6, cfg)
        b.set_state(a.get_state())
        for slot in range(10, 20):
            ka = a.transfer(slot, np.arange(6), self.payload(6))
            kb = b.transfer(slot, np.arange(6), self.payload(6))
            np.testing.assert_array_equal(ka, kb)
            da, db = a.due(slot), b.due(slot)
            assert len(da) == len(db)
            for (oa, ia, va), (ob, ib, vb) in zip(da, db):
                assert oa == ob
                np.testing.assert_array_equal(ia, ib)
                np.testing.assert_array_equal(va, vb)
        assert a.counters() == b.counters()

    def test_set_state_rejects_wrong_kind(self):
        link = NetworkLink(3, LinkConfig(loss=0.1))
        with pytest.raises(SimulationError):
            link.set_state(IdealLink(3).get_state())
        with pytest.raises(SimulationError):
            IdealLink(3).set_state(link.get_state())


# ---------------------------------------------------------------------------
# Channel.record_deliveries choke point (satellite 2)
# ---------------------------------------------------------------------------


class TestRecordDeliveries:
    def test_counts_match_count_column_stats(self):
        # The session counts through record_deliveries, Engine.run
        # through a count column: the two must agree.
        channel = Channel(np.zeros(6, dtype=np.int64))
        ids = np.asarray([0, 2, 5])
        counts = channel.record_deliveries(
            ids, num_nodes=6, floats_per_message=3
        )
        manual = np.bincount(ids, minlength=6)
        column = TransportStats.from_node_counts(
            manual.astype(np.int64), floats_per_message=3
        )
        np.testing.assert_array_equal(counts, manual)
        assert channel.stats.messages == column.messages == 3
        assert channel.stats.payload_floats == column.payload_floats == 9
        assert channel.stats.per_node_messages == column.per_node_messages

    def test_empty_delivery(self):
        channel = Channel(np.zeros(4, dtype=np.int64))
        counts = channel.record_deliveries(
            np.empty(0, dtype=np.int64), num_nodes=4, floats_per_message=2
        )
        np.testing.assert_array_equal(counts, np.zeros(4, dtype=np.int64))
        assert channel.stats.messages == 0

    def test_session_conservation_sent_equals_sum(self):
        # End-to-end: the channel's delivered count plus the link's
        # losses and in-flight backlog reconstruct every decision.
        cfg = LinkConfig(loss=0.2, latency=1, seed=5)
        link = NetworkLink(6, cfg)
        session = Engine(config(), policy="uniform").session(
            6, 1, link=link, reorder_window=4
        )
        trace = walk_trace(steps=30, nodes=6, seed=2)
        for t in range(trace.shape[0]):
            for origin, ids, values in link.due(t):
                session.ingest(values, ids, t=origin)
            session.ingest(trace[t][:, np.newaxis])
        totals = link.counters()
        assert totals["sent"] == (
            totals["delivered_now"]
            + totals["delivered_late"]
            + totals["dropped_loss"]
            + totals["dropped_churn"]
            + link.in_flight
        )
        # Every link delivery flowed through the session's late-arrival
        # contract and then the channel choke point: the link's late
        # count splits exactly into applied + contract-dropped, and only
        # counted-if-applied messages reach the transport stats.
        assert totals["delivered_late"] == (
            session.late_applied + session.late_dropped
        )
        assert session.transport_stats.messages == (
            totals["delivered_now"] + session.late_applied
        )


# ---------------------------------------------------------------------------
# Churn schedule and membership track (tentpole b)
# ---------------------------------------------------------------------------


class TestChurnSchedule:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnEvent(slot=-1, kind="join")
        with pytest.raises(ConfigurationError):
            ChurnEvent(slot=0, kind="explode")
        with pytest.raises(ConfigurationError):
            ChurnEvent(slot=0, kind="join", count=0)

    def test_sorted_at_before(self):
        schedule = ChurnSchedule([
            ChurnEvent(slot=9, kind="leave"),
            ChurnEvent(slot=3, kind="join", count=2),
            ChurnEvent(slot=3, kind="crash"),
        ])
        assert [e.slot for e in schedule] == [3, 3, 9]
        assert len(schedule.at(3)) == 2
        assert schedule.at(4) == ()
        assert [e.slot for e in schedule.before(9)] == [3, 3]

    def test_periodic_and_merge(self):
        joins = ChurnSchedule.periodic(
            "join", every=10, start=10, until=40, count=2
        )
        crashes = ChurnSchedule.periodic("crash", every=15, start=15, until=31)
        merged = ChurnSchedule.merge(joins, crashes)
        assert [e.slot for e in joins] == [10, 20, 30]
        assert len(merged) == 5
        assert [e.slot for e in merged] == sorted(e.slot for e in merged)


class TestMembershipTrack:
    def test_joins_consume_fresh_columns_in_order(self):
        track = MembershipTrack(10, 4, seed=0)
        np.testing.assert_array_equal(track.join(3), [4, 5, 6])
        np.testing.assert_array_equal(track.members, np.arange(7))
        # Columns are never reused, so a join clamps to what's left.
        np.testing.assert_array_equal(track.join(5), [7, 8, 9])
        assert track.join(1).size == 0
        assert track.columns_remaining == 0

    def test_leave_keeps_at_least_one(self):
        track = MembershipTrack(5, 3, seed=1)
        keep, removed = track.leave(10)
        assert removed.size == 2
        assert track.num_members == 1
        keep, removed = track.leave(1)
        assert removed.size == 0
        np.testing.assert_array_equal(keep, [0])

    def test_leave_returns_compact_argument(self):
        track = MembershipTrack(8, 6, seed=2)
        keep, removed = track.leave(2)
        assert keep.size == 4
        assert np.all(np.diff(keep) > 0)
        assert np.intersect1d(keep, removed).size == 0

    def test_crash_preserves_membership(self):
        track = MembershipTrack(6, 5, seed=3)
        before = track.members.copy()
        victims = track.crash(2)
        assert victims.size == 2
        np.testing.assert_array_equal(track.members, before)

    def test_replay_reproduces_membership_and_draws(self):
        events = [
            ChurnEvent(slot=5, kind="join", count=2),
            ChurnEvent(slot=8, kind="crash", count=1),
            ChurnEvent(slot=12, kind="leave", count=2),
        ]
        live = MembershipTrack(12, 6, seed=9)
        for event in events:
            getattr(live, event.kind)(event.count)
        replayed = MembershipTrack(12, 6, seed=9)
        replayed.replay(events)
        np.testing.assert_array_equal(live.members, replayed.members)
        # The next random decision also matches: the generators are in
        # the same state.
        np.testing.assert_array_equal(live.crash(2), replayed.crash(2))


# ---------------------------------------------------------------------------
# Session churn: grow / compact / restart (tentpole b)
# ---------------------------------------------------------------------------


class TestSessionChurn:
    def run_slots(self, session, trace, start, end):
        for t in range(start, end):
            session.ingest(trace[t, : session.num_nodes][:, np.newaxis])

    def test_grow_then_compact_roundtrip(self):
        trace = walk_trace(steps=40, nodes=12, seed=4)
        session = Engine(config(), policy="adaptive").session(8, 1)
        self.run_slots(session, trace, 0, 15)
        session.grow(4)
        assert session.num_nodes == 12
        self.run_slots(session, trace, 15, 25)
        session.compact(np.asarray([0, 1, 2, 3, 6, 7, 8, 9, 10, 11]))
        assert session.num_nodes == 10
        self.run_slots(session, trace, 25, 40)
        state = session.snapshot()
        assert state.session["num_nodes"] == 10

    def test_restart_nodes_resets_state(self):
        trace = walk_trace(steps=30, nodes=6, seed=5)
        session = Engine(config(), policy="adaptive").session(6, 1)
        self.run_slots(session, trace, 0, 20)
        crashed = np.asarray([1, 4])
        times = session.fleet.times.copy()
        stored = session.fleet.stored.copy()
        session.restart_nodes(crashed)
        # Policy state zeroed, clocks keep running, the store keeps the
        # last received values.
        assert not session.fleet.observed[crashed].any()
        np.testing.assert_array_equal(session.fleet.policy_state[crashed], 0)
        np.testing.assert_array_equal(session.fleet.times, times)
        np.testing.assert_array_equal(session.fleet.stored, stored)
        # The next report of a restarted node is a forced transmission.
        output = session.ingest(trace[20][:, np.newaxis])
        sent = output.transport.per_node_messages.as_array()
        np.testing.assert_array_equal(sent[crashed], 1)
        np.testing.assert_array_equal(session.fleet.last_update[crashed], 20)
        np.testing.assert_array_equal(session.fleet.times, times + 1)
        self.run_slots(session, trace, 21, 30)
        assert session.fleet.observed[crashed].all()

    def test_restart_validates_ids(self):
        from repro.exceptions import DataError

        session = Engine(config(), policy="uniform").session(4, 1)
        with pytest.raises(DataError):
            session.restart_nodes(np.asarray([4]))
        with pytest.raises(DataError):
            session.restart_nodes(np.asarray([1, 1]))

    def test_transport_retired_invariant_through_churn(self):
        trace = walk_trace(steps=40, nodes=12, seed=6)
        session = Engine(config(), policy="uniform").session(8, 1)
        self.run_slots(session, trace, 0, 15)
        before = session.transport_stats.messages
        session.compact(np.asarray([0, 1, 2, 5, 6, 7]))
        stats = session.transport_stats
        # Cumulative totals never shrink; the departed nodes' counts
        # moved into the retired bucket.
        assert stats.messages == before
        assert stats.retired_messages > 0
        assert stats.messages == (
            int(stats.per_node_messages.as_array().sum())
            + stats.retired_messages
        )
        session.grow(3)
        self.run_slots(session, trace, 15, 40)
        stats = session.transport_stats
        assert stats.messages == (
            int(stats.per_node_messages.as_array().sum())
            + stats.retired_messages
        )

    def test_adopt_column_direct(self):
        stats = TransportStats(np.zeros(4, dtype=np.int64))
        stats._count_batch(np.asarray([3, 1, 0, 2]), 2)
        assert stats.messages == 6
        stats.adopt_column(np.asarray([3, 2], dtype=np.int64))
        assert stats.messages == 6
        assert stats.retired_messages == 1
        np.testing.assert_array_equal(
            stats.per_node_messages.as_array(), [3, 2]
        )


# ---------------------------------------------------------------------------
# Scenario specs and registry (tentpole c)
# ---------------------------------------------------------------------------


class TestScenarioSpec:
    def test_builtins_registered(self):
        names = SCENARIOS.available()
        for name in (
            "ideal", "lossy", "bursty", "contended", "churny", "lossy_churn"
        ):
            assert name in names

    def test_builders_return_fresh_validated_specs(self):
        a = SCENARIOS.create("lossy_churn")
        b = SCENARIOS.create("lossy_churn")
        assert a is not b
        a.validate()

    def test_resolve_by_name_and_instance(self):
        spec = resolve_scenario("ideal")
        assert isinstance(spec, ScenarioSpec)
        assert resolve_scenario(spec) is spec
        with pytest.raises(ConfigurationError):
            resolve_scenario("no_such_scenario")
        with pytest.raises(ConfigurationError):
            resolve_scenario(42)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", source="nope").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", initial_nodes=10, total_nodes=5).validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                num_steps=50,
                churn=ChurnSchedule([ChurnEvent(slot=50, kind="join")]),
            ).validate()

    def test_with_steps_drops_out_of_range_churn(self):
        spec = SCENARIOS.create("lossy_churn")
        short = spec.with_steps(80)
        assert short.num_steps == 80
        assert all(e.slot < 80 for e in short.churn)
        short.validate()

    def test_effective_reorder_window_covers_latency(self):
        spec = ScenarioSpec(name="x", link=LinkConfig(latency=5))
        assert spec.effective_reorder_window > 5
        pinned = ScenarioSpec(name="x", reorder_window=3)
        assert pinned.effective_reorder_window == 3


# ---------------------------------------------------------------------------
# The trace-replay harness, end to end (tentpole c, acceptance)
# ---------------------------------------------------------------------------


def quick_lossy_churn(num_steps=90):
    """The acceptance scenario, shortened for test wall-clock."""
    return ScenarioSpec(
        name="quick_lossy_churn",
        source="alibaba",
        num_steps=num_steps,
        total_nodes=16,
        initial_nodes=12,
        seed=11,
        link=LinkConfig(
            loss=0.05, burst_enter=0.05, burst_exit=0.35, burst_loss=0.8,
            latency=1, uplinks=2, uplink_capacity=3, seed=104,
        ),
        churn=ChurnSchedule([
            ChurnEvent(slot=30, kind="join", count=2),
            ChurnEvent(slot=45, kind="crash", count=2),
            ChurnEvent(slot=60, kind="leave", count=2),
            ChurnEvent(slot=75, kind="join", count=1),
        ]),
    )


class TestHarness:
    def test_lossy_contended_churny_run_conserves(self):
        report = run_scenario(quick_lossy_churn())
        assert report.conserved
        totals = report.link_totals
        assert totals["sent"] == (
            totals["delivered_now"]
            + totals["delivered_late"]
            + totals["dropped_loss"]
            + totals["dropped_churn"]
            + report.in_flight
        )
        # With latency=1 everything delivered arrives late, through the
        # session's reorder-window contract.
        assert totals["delivered_now"] == 0
        assert totals["delivered_late"] > 0
        assert report.late_applied + report.late_dropped == (
            totals["delivered_late"]
        )
        assert report.late_applied > 0
        # All three churn kinds actually fired.
        kinds = {kind for _, kind, _ in report.events}
        assert kinds == {"join", "crash", "leave"}
        assert report.slots == 90
        assert report.final_nodes == 13
        assert len(report.per_slot["fleet_size"]) == 90
        assert report.per_slot["fleet_size"][0] == 12
        # Per-slot link deltas sum back to the cumulative totals.
        for key in (
            "delivered_now", "delivered_late", "dropped_loss", "dropped_churn"
        ):
            assert int(report.per_slot[key].sum()) == totals[key]
        assert report.rmse_by_horizon
        assert "conserved" in report.summary()

    def test_ideal_scenario_report(self):
        spec = ScenarioSpec(
            name="tiny_ideal", source="sensor", resource="temperature",
            num_steps=60, total_nodes=8, initial_nodes=8,
        )
        report = run_scenario(spec)
        assert report.conserved
        assert report.link_totals["sent"] == (
            report.link_totals["delivered_now"]
        )
        assert report.late_applied == 0
        assert report.transport_messages == report.link_totals["sent"]
        assert 0 < report.empirical_frequency <= 1

    def test_rmse_by_horizon_is_eq4_like_engine_run(self):
        # Ideal link, static fleet: the replay's forecasts are Engine.run's
        # on the same trace, so the time-averaged RMSE (Eq. 4) agrees.
        spec = ScenarioSpec(
            name="default_static", num_steps=200,
            total_nodes=24, initial_nodes=24,
        )
        report = run_scenario(spec)
        trace = TRACE_SOURCES[spec.source](
            num_nodes=spec.total_nodes, num_steps=spec.num_steps
        ).resource(spec.resource)
        result = Engine(
            spec.pipeline_config, policy=spec.policy
        ).run(trace)
        horizons = [h for h in result.rmse_by_horizon if h >= 1]
        assert sorted(report.rmse_by_horizon) == horizons
        for h in horizons:
            assert report.rmse_by_horizon[h] == pytest.approx(
                result.rmse_by_horizon[h], rel=1e-12
            )

    def test_until_truncates(self):
        report = run_scenario(quick_lossy_churn(), until=40)
        assert report.slots == 40
        assert all(slot < 40 for slot, _, _ in report.events)


# ---------------------------------------------------------------------------
# Checkpoint/resume mid-scenario, mid-churn (satellite 3, second pin)
# ---------------------------------------------------------------------------


class TestScenarioCheckpointResume:
    def compare_full_vs_resumed(self, spec, stop, tmp_path):
        full_path = tmp_path / "full.ckpt"
        run_scenario(spec, checkpoint_path=full_path)

        staged_path = tmp_path / "staged.ckpt"
        run_scenario(spec, until=stop, checkpoint_path=staged_path)
        resumed_path = tmp_path / "resumed.ckpt"
        tail = run_scenario(
            spec, resume_from=staged_path, checkpoint_path=resumed_path
        )
        assert tail.slots == spec.num_steps - stop

        from repro.checkpoint import as_checkpoint

        full = as_checkpoint(full_path)
        resumed = as_checkpoint(resumed_path)
        assert_trees_equal(full.session, resumed.session)
        assert_trees_equal(full.state, resumed.state)

    def test_resume_mid_scenario(self, tmp_path):
        # Stop between churn events, with latency traffic in flight.
        self.compare_full_vs_resumed(quick_lossy_churn(), 40, tmp_path)

    def test_resume_immediately_after_churn(self, tmp_path):
        # Stop right after a compact: geometry just changed.
        self.compare_full_vs_resumed(quick_lossy_churn(), 61, tmp_path)

    def test_resume_rejects_mismatched_membership(self, tmp_path):
        spec = quick_lossy_churn()
        path = tmp_path / "staged.ckpt"
        run_scenario(spec, until=70, checkpoint_path=path)
        import dataclasses

        other = dataclasses.replace(spec, initial_nodes=13)
        with pytest.raises(SimulationError):
            run_scenario(other, resume_from=path)

    def test_linked_checkpoint_requires_link(self, tmp_path):
        link = NetworkLink(5, LinkConfig(loss=0.1, seed=3))
        engine = Engine(config(), policy="uniform")
        session = engine.session(5, 1, link=link)
        trace = walk_trace(steps=20, nodes=5, seed=8)
        for t in range(trace.shape[0]):
            session.ingest(trace[t][:, np.newaxis])
        path = tmp_path / "linked.ckpt"
        session.save(path)
        with pytest.raises(CheckpointError):
            Engine(config(), policy="uniform").resume(path)
        fresh = NetworkLink(5, LinkConfig(loss=0.1, seed=3))
        resumed = Engine(config(), policy="uniform").resume(path, link=fresh)
        assert resumed.time == 20
        assert fresh.counters() == link.counters()
