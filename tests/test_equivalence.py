"""Cross-engine equivalence and determinism properties.

The library has two ways to run everything (a streaming
``Engine.session`` vs a batch ``Engine.run``) and two collection
engines (object-level vs vectorized).  These tests pin them together: a
refactor that changes any engine's semantics relative to the others
fails here.

The vectorized hot-path kernels (α-clipped offsets, contingency-based
similarity re-indexing, membership forecasting, the batched collection
fast path) are additionally pinned **bit-identical** to the
pre-vectorization loop implementations kept in `repro.reference_impl`,
on randomized traces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.pipeline import OnlinePipeline
from repro.clustering.similarity import (
    persistent_labels,
    similarity_matrix_from_labels,
)
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import (
    alpha_clip,
    alpha_clip_batch,
    estimate_offsets,
)
from repro.reference_impl import (
    alpha_clip_reference,
    estimate_offsets_reference,
    forecast_membership_reference,
    reindex_weights_reference,
)
from repro.simulation.collection import (
    CollectionSimulation,
    simulate_adaptive_collection,
    simulate_uniform_collection,
)
from repro.transmission.adaptive import AdaptiveTransmissionPolicy
from repro.transmission.uniform import UniformTransmissionPolicy


def config(budget=0.3, initial=20, horizon=2):
    return PipelineConfig(
        transmission=TransmissionConfig(budget=budget),
        clustering=ClusteringConfig(num_clusters=2, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=horizon,
            initial_collection=initial,
            retrain_interval=initial,
        ),
    )


def walk_trace(steps=60, nodes=6, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.03, (steps, nodes)), axis=0), 0, 1
    )


class TestStreamingVsBatch:
    def test_stored_values_identical(self):
        trace = walk_trace()
        cfg = config()
        batch = simulate_adaptive_collection(trace, cfg.transmission)
        session = Engine(cfg).session(6, 1)
        for t in range(60):
            output = session.ingest(trace[t])
            np.testing.assert_allclose(
                output.stored, batch.stored[t],
                err_msg=f"slot {t}",
            )

    def test_forecasts_identical(self):
        trace = walk_trace(seed=1)
        cfg = config(initial=15, horizon=2)
        # Batch path.
        batch_collect = simulate_adaptive_collection(trace, cfg.transmission)
        batch_pipeline = OnlinePipeline(6, 1, cfg)
        batch_outputs = [
            batch_pipeline.step(batch_collect.stored[t]) for t in range(60)
        ]
        # Streaming path.
        session = Engine(cfg).session(6, 1)
        for t in range(60):
            stream_output = session.ingest(trace[t])
            batch_output = batch_outputs[t]
            if batch_output.node_forecasts is None:
                assert stream_output.node_forecasts is None
            else:
                for h in batch_output.node_forecasts:
                    np.testing.assert_allclose(
                        stream_output.node_forecasts[h],
                        batch_output.node_forecasts[h],
                        err_msg=f"slot {t} horizon {h}",
                    )

    def test_transmission_counts_identical(self):
        trace = walk_trace(seed=2)
        cfg = config()
        batch = simulate_adaptive_collection(trace, cfg.transmission)
        session = Engine(cfg).session(6, 1)
        for t in range(60):
            session.ingest(trace[t])
        assert session.transport_stats.messages == int(batch.decisions.sum())


class TestDeterminism:
    def test_run_pipeline_deterministic(self):
        trace = walk_trace(seed=3)
        a = Engine(config()).run(trace)
        b = Engine(config()).run(trace)
        assert a.rmse_by_horizon == b.rmse_by_horizon
        np.testing.assert_array_equal(a.decisions, b.decisions)

    def test_lstm_pipeline_deterministic_with_seed(self):
        trace = walk_trace(steps=50, seed=4)
        cfg = PipelineConfig(
            clustering=ClusteringConfig(num_clusters=2, seed=0),
            forecasting=ForecastingConfig(
                model="lstm", max_horizon=1,
                initial_collection=25, retrain_interval=25,
                lstm_hidden=4, lstm_lookback=5, lstm_epochs=2, seed=11,
            ),
        )
        a = Engine(cfg).run(trace)
        b = Engine(cfg).run(trace)
        assert a.rmse_by_horizon == b.rmse_by_horizon

    @given(st.floats(0.1, 0.9), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_adaptive_budget_property(self, budget, seed):
        trace = walk_trace(steps=500, nodes=4, seed=seed)
        result = simulate_adaptive_collection(
            trace, TransmissionConfig(budget=budget)
        )
        # Long-run frequency converges to the budget from below-ish;
        # allow a small finite-horizon tolerance.
        assert result.empirical_frequency <= budget + 0.02
        assert result.empirical_frequency >= budget * 0.8 - 0.02

    @given(st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_stored_is_some_past_truth(self, seed):
        # Staleness rule: z_{i,t} must equal x_{i,t-p} for some p >= 0.
        trace = walk_trace(steps=80, nodes=5, seed=seed)
        result = simulate_adaptive_collection(trace, TransmissionConfig())
        for t in range(80):
            for i in range(5):
                past = trace[: t + 1, i]
                assert np.isclose(past, result.stored[t, i, 0]).any(), (
                    t, i,
                )


class TestVectorizedOffsetsEquivalence:
    """Vectorized Eq. 12 kernels vs the reference per-node loops."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_alpha_clip_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        num_clusters = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 5))
        centroids = rng.normal(size=(num_clusters, dim))
        value = rng.normal(size=dim)
        cluster = int(rng.integers(0, num_clusters))
        assert alpha_clip(value, centroids, cluster) == (
            alpha_clip_reference(value, centroids, cluster)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_alpha_clip_batch_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        num_clusters = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 5))
        values = rng.normal(size=(num_nodes, dim))
        centroids = rng.normal(size=(num_clusters, dim))
        clusters = rng.integers(0, num_clusters, size=num_nodes)
        batched = alpha_clip_batch(values, centroids, clusters)
        for i in range(num_nodes):
            assert batched[i] == alpha_clip_reference(
                values[i], centroids, int(clusters[i])
            )

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_estimate_offsets_bit_identical(self, seed, clip):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 30))
        num_clusters = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        history = int(rng.integers(1, 6))
        lookback = int(rng.integers(0, 7))
        stored = [rng.normal(size=(num_nodes, dim)) for _ in range(history)]
        cents = [rng.normal(size=(num_clusters, dim)) for _ in range(history)]
        memberships = rng.integers(0, num_clusters, size=num_nodes)
        reference = estimate_offsets_reference(
            stored, cents, memberships, lookback, clip=clip
        )
        vectorized = estimate_offsets(
            stored, cents, memberships, lookback, clip=clip
        )
        np.testing.assert_array_equal(reference, vectorized)

    def test_offsets_on_clustered_trace(self):
        # A realistic case: values near their own centroid, some nodes
        # drifting across the boundary (exercising α < 1).
        rng = np.random.default_rng(0)
        centroids = np.array([[0.2], [0.8]])
        labels = np.repeat([0, 1], 10)
        stored, cents = [], []
        for _ in range(4):
            jitter = rng.normal(0, 0.25, size=(20, 1))
            stored.append(centroids[labels] + jitter)
            cents.append(centroids + rng.normal(0, 0.02, size=(2, 1)))
        reference = estimate_offsets_reference(stored, cents, labels, 3)
        vectorized = estimate_offsets(stored, cents, labels, 3)
        np.testing.assert_array_equal(reference, vectorized)


class TestVectorizedSimilarityEquivalence:
    """Contingency-based similarity vs the set-based Eq. 10 transcript."""

    @given(st.integers(0, 10_000), st.sampled_from(["intersection", "jaccard"]))
    @settings(max_examples=60, deadline=None)
    def test_similarity_matrix_bit_identical(self, seed, kind):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 50))
        num_clusters = int(rng.integers(1, 8))
        depth = int(rng.integers(1, 5))
        new_labels = rng.integers(0, num_clusters, size=num_nodes)
        history = [
            rng.integers(0, num_clusters, size=num_nodes)
            for _ in range(depth)
        ]
        reference = reindex_weights_reference(
            kind, new_labels, history, num_clusters
        )
        vectorized = similarity_matrix_from_labels(
            kind, new_labels, history, num_clusters
        )
        np.testing.assert_array_equal(reference, vectorized)

    @given(st.integers(0, 10_000), st.sampled_from(["intersection", "jaccard"]))
    @settings(max_examples=40, deadline=None)
    def test_similarity_ragged_fleet_sizes_bit_identical(self, seed, kind):
        # The fleet may grow or shrink between slots; the label-array
        # path must keep the set semantics (absent ids intersect empty).
        rng = np.random.default_rng(seed)
        num_clusters = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 5))
        new_labels = rng.integers(
            0, num_clusters, size=int(rng.integers(1, 40))
        )
        history = [
            rng.integers(0, num_clusters, size=int(rng.integers(1, 40)))
            for _ in range(depth)
        ]
        reference = reindex_weights_reference(
            kind, new_labels, history, num_clusters
        )
        vectorized = similarity_matrix_from_labels(
            kind, new_labels, history, num_clusters
        )
        np.testing.assert_array_equal(reference, vectorized)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_persistent_labels_match_set_intersection(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        num_clusters = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 5))
        history = [
            rng.integers(0, num_clusters, size=num_nodes)
            for _ in range(depth)
        ]
        persistent = persistent_labels(history)
        for j in range(num_clusters):
            expected = set(np.flatnonzero(history[0] == j).tolist())
            for labels in history[1:]:
                expected &= set(np.flatnonzero(labels == j).tolist())
            assert set(np.flatnonzero(persistent == j).tolist()) == expected


class TestVectorizedMembershipEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_forecast_membership_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        num_clusters = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 8))
        lookback = int(rng.integers(0, 9))
        history = [
            rng.integers(0, num_clusters, size=num_nodes)
            for _ in range(depth)
        ]
        np.testing.assert_array_equal(
            forecast_membership_reference(history, lookback),
            forecast_membership(history, lookback),
        )


class TestBatchedCollectionEquivalence:
    """CollectionSimulation's vectorized fast path vs its object loop."""

    def _object_result(self, sim, trace):
        data = np.asarray(trace, dtype=float)[:, :, np.newaxis]
        return sim._run_object_loop(data)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_adaptive_fast_path_identical(self, seed):
        trace = walk_trace(steps=60, nodes=5, seed=seed)

        def factory(i):
            return AdaptiveTransmissionPolicy(
                TransmissionConfig(budget=0.15 + 0.1 * (i % 3))
            )

        fast_sim = CollectionSimulation(5, factory)
        assert fast_sim._batchable()
        fast = fast_sim.run(trace)
        slow_sim = CollectionSimulation(5, factory)
        slow = self._object_result(slow_sim, trace)
        np.testing.assert_array_equal(fast.decisions, slow.decisions)
        np.testing.assert_array_equal(fast.stored, slow.stored)
        assert fast.stats.messages == slow.stats.messages
        assert fast.stats.per_node_messages == slow.stats.per_node_messages
        for fast_node, slow_node in zip(fast_sim.nodes, slow_sim.nodes):
            assert fast_node.time == slow_node.time
            np.testing.assert_array_equal(
                fast_node.stored_value, slow_node.stored_value
            )
            assert fast_node.policy.queue_length == (
                slow_node.policy.queue_length
            )
            np.testing.assert_array_equal(
                fast_node.policy.queue_history,
                slow_node.policy.queue_history,
            )
            np.testing.assert_array_equal(
                fast_node.policy.decisions, slow_node.policy.decisions
            )

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_uniform_fast_path_identical(self, seed):
        trace = walk_trace(steps=60, nodes=6, seed=seed)

        def factory(i):
            return UniformTransmissionPolicy(0.3, phase=(0.17 * i) % 1.0)

        fast_sim = CollectionSimulation(6, factory)
        assert fast_sim._batchable()
        fast = fast_sim.run(trace)
        slow_sim = CollectionSimulation(6, factory)
        slow = self._object_result(slow_sim, trace)
        np.testing.assert_array_equal(fast.decisions, slow.decisions)
        np.testing.assert_array_equal(fast.stored, slow.stored)
        for fast_node, slow_node in zip(fast_sim.nodes, slow_sim.nodes):
            np.testing.assert_array_equal(
                fast_node.policy.decisions, slow_node.policy.decisions
            )

    def test_heterogeneous_policies_fall_back(self):
        def factory(i):
            if i % 2:
                return UniformTransmissionPolicy(0.3)
            return AdaptiveTransmissionPolicy(TransmissionConfig())

        sim = CollectionSimulation(4, factory)
        assert not sim._batchable()
        result = sim.run(walk_trace(steps=30, nodes=4, seed=0))
        assert result.decisions[0].sum() == 4

    def test_second_run_falls_back_and_continues(self):
        # After a batched run the nodes are mid-stream; a second run must
        # take the object loop (no forced re-transmission semantics).
        sim = CollectionSimulation(
            3, lambda i: AdaptiveTransmissionPolicy(TransmissionConfig())
        )
        first = sim.run(walk_trace(steps=20, nodes=3, seed=1))
        assert first.decisions[0].sum() == 3
        assert not sim._batchable()
        second = sim.run(walk_trace(steps=20, nodes=3, seed=2))
        assert second.stored.shape == (20, 3, 1)
        assert sim.nodes[0].time == 40

    def test_second_run_keeps_last_transmitted_value(self):
        # Silent nodes early in a continuation run must report the value
        # carried over from the previous run, not the store's zeros.
        sim = CollectionSimulation(
            2, lambda i: UniformTransmissionPolicy(0.25)
        )
        first = sim.run(np.full((10, 2), 5.0))
        assert first.decisions[0].sum() == 2
        second = sim.run(np.full((10, 2), 7.0))
        assert second.decisions[0].sum() == 0  # accumulator mid-cycle
        np.testing.assert_array_equal(second.stored[0], [[5.0], [5.0]])

    def test_uniform_module_function_matches_object_engine(self):
        trace = walk_trace(steps=50, nodes=4, seed=3)
        vectorized = simulate_uniform_collection(trace, 0.4, stagger=False)
        sim = CollectionSimulation(
            4, lambda i: UniformTransmissionPolicy(0.4, phase=0.0)
        )
        object_level = self._object_result(sim, trace)
        np.testing.assert_array_equal(
            vectorized.decisions, object_level.decisions
        )
        np.testing.assert_array_equal(
            vectorized.stored, object_level.stored
        )
