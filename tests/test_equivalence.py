"""Cross-engine equivalence and determinism properties.

The library has two ways to run everything (a streaming
``Engine.session`` vs a batch ``Engine.run``), and its collection
backends are pinned against the per-node object model kept in
``collection_oracle``.  These tests pin them together: a refactor that
changes any engine's semantics relative to the others fails here.

The vectorized hot-path kernels (K-means, α-clipped offsets,
contingency-based similarity re-indexing, membership forecasting) are
additionally pinned **bit-identical** to the earlier implementations
kept in `tests/reference_impl.py`, on randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collection_oracle import (
    AdaptiveTransmissionPolicy,
    CollectionSimulation,
    UniformTransmissionPolicy,
    assert_same_columns,
)
from reference_impl import (
    _kmeans_plus_plus_init,
    alpha_clip_reference,
    estimate_offsets_reference,
    forecast_membership_reference,
    kmeans_reference,
    reindex_weights_reference,
)
from repro.api import Engine
from repro.clustering.kmeans import (
    _squared_distances_to,
    cluster_means,
    kmeans,
    kmeans_plus_plus_init,
)
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
from repro.exceptions import DataError
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import (
    alpha_clip,
    alpha_clip_batch,
    estimate_offsets,
)
from repro.registry import COLLECTION_BACKENDS, SLOT_KERNELS
from repro.simulation.collection import collect, run_slot_kernel
from repro.simulation.fleet import FleetState


#: Resource dimensions the kernel pins cover: both sides of d = 2, where
#: the explicit squared distance gives way to ``einsum``, and of d = 8,
#: where numpy's trailing-axis sums turn pairwise; 32 stands for the
#: long feature vectors of the temporal-window and Gaussian-monitor runs.
DIMS = (1, 2, 3, 4, 7, 8, 9, 32)


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
        batch = collect(trace, cfg.transmission)
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
        batch_collect = collect(trace, cfg.transmission)
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
        batch = collect(trace, cfg.transmission)
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
        result = collect(trace, TransmissionConfig(budget=budget))
        # Long-run frequency converges to the budget from below-ish;
        # allow a small finite-horizon tolerance.
        assert result.empirical_frequency <= budget + 0.02
        assert result.empirical_frequency >= budget * 0.8 - 0.02

    @given(st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_stored_is_some_past_truth(self, seed):
        # Staleness rule: z_{i,t} must equal x_{i,t-p} for some p >= 0.
        trace = walk_trace(steps=80, nodes=5, seed=seed)
        result = collect(trace, TransmissionConfig())
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
        num_clusters = int(rng.integers(1, 9))
        dim = int(rng.choice(DIMS))
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
        num_clusters = int(rng.integers(1, 9))
        dim = int(rng.choice(DIMS))
        values = rng.normal(size=(num_nodes, dim))
        centroids = rng.normal(size=(num_clusters, dim))
        clusters = rng.integers(0, num_clusters, size=num_nodes)
        if num_clusters > 1 and rng.random() < 0.3:
            centroids[1] = centroids[0]  # duplicate centroids
        if rng.random() < 0.3:
            values[::2] = centroids[clusters[::2]]  # zero directions
        batched = alpha_clip_batch(values, centroids, clusters)
        for i in range(num_nodes):
            assert batched[i] == alpha_clip_reference(
                values[i], centroids, int(clusters[i])
            )

    @given(st.integers(0, 10_000), st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_estimate_offsets_bit_identical(self, seed, clip, stacked):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 30))
        num_clusters = int(rng.integers(1, 9))
        dim = int(rng.choice(DIMS))
        history = int(rng.integers(1, 6))
        # Up to 8 slots: often longer than the history.
        lookback = int(rng.integers(0, 8))
        stored = [rng.normal(size=(num_nodes, dim)) for _ in range(history)]
        cents = [rng.normal(size=(num_clusters, dim)) for _ in range(history)]
        memberships = rng.integers(0, num_clusters, size=num_nodes)
        if num_clusters > 1 and rng.random() < 0.3:
            for slot in cents:
                slot[1] = slot[0]  # duplicate centroids
        if rng.random() < 0.3:
            for z, slot in zip(stored, cents):
                z[::2] = slot[memberships[::2]]  # zero directions
        reference = estimate_offsets_reference(
            stored, cents, memberships, lookback, clip=clip
        )
        if stacked:  # the pipeline passes its window as one array
            stored, cents = np.stack(stored), np.stack(cents)
        vectorized = estimate_offsets(
            stored, cents, memberships, lookback, clip=clip
        )
        assert vectorized.tobytes() == reference.tobytes()
        assert vectorized.shape == reference.shape

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


class TestOffsetMemo:
    """estimate_offsets over a reused memo of per-slot target terms vs
    the stateless call and the reference loops, and the pipeline's
    memo across churn, restore and rewind."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(DIMS),
        st.sampled_from((1, 2, 3, 5)),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_over_a_sliding_window_bit_identical(
        self, seed, dim, clusters, clip
    ):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 25))
        lookback = int(rng.integers(0, 6))
        window = lookback + 1
        float32 = rng.random() < 0.3
        stored, cents, memo = [], [], []
        for _ in range(window + int(rng.integers(1, 6))):
            centroids = rng.normal(size=(clusters, dim))
            z = rng.normal(size=(num_nodes, dim))
            if float32:
                centroids = centroids.astype(np.float32).astype(float)
            if rng.random() < 0.3:
                # Points exactly on a centroid: zero directions.
                on = rng.integers(0, clusters, size=z[::2].shape[0])
                z[::2] = centroids[on]
            if rng.random() < 0.3:
                # -0.0 against a 0.0 centroid: signed-zero directions.
                centroids[0] = 0.0
                z[1::3] = -0.0
            stored.append(z.astype(np.float32) if float32 else z)
            cents.append(centroids)
            memo.append(None)
            del memo[:-window]
            if rng.random() < 0.2:
                memo[int(rng.integers(0, len(memo)))] = None
            memberships = rng.integers(0, clusters, size=num_nodes)
            memoized = estimate_offsets(
                stored, cents, memberships, lookback, clip=clip, memo=memo
            )
            stateless = estimate_offsets(
                stored, cents, memberships, lookback, clip=clip
            )
            reference = estimate_offsets_reference(
                stored, cents, memberships, lookback, clip=clip
            )
            assert memoized.tobytes() == stateless.tobytes()
            assert memoized.tobytes() == reference.tobytes()
            assert memoized.shape == reference.shape
            assert all(terms is not None for terms in memo)

    @pytest.mark.parametrize("dim", (2, 8))
    def test_memo_spanning_several_node_blocks(self, dim):
        # The memo computes a slot's terms 1,024 nodes at a time; a
        # fleet of two and a half blocks must match the stateless call.
        rng = np.random.default_rng(dim)
        num_nodes, clusters, lookback = 2_600, 3, 2
        stored = [rng.normal(size=(num_nodes, dim)) for _ in range(4)]
        cents = [rng.normal(size=(clusters, dim)) for _ in range(4)]
        memberships = rng.integers(0, clusters, size=num_nodes)
        memo = [None] * 4
        memoized = estimate_offsets(
            stored, cents, memberships, lookback, memo=memo
        )
        stateless = estimate_offsets(stored, cents, memberships, lookback)
        assert memoized.tobytes() == stateless.tobytes()
        assert memo[0] is None  # outside the window: never computed

    def test_memo_shorter_than_the_window_is_rejected(self):
        stored = [np.zeros((3, 1))] * 3
        cents = [np.zeros((2, 1))] * 3
        with pytest.raises(DataError):
            estimate_offsets(stored, cents, np.zeros(3), 2, memo=[None])
        with pytest.raises(DataError):
            estimate_offsets(
                stored, cents, np.zeros(3), 0, memo=[np.zeros((1, 2, 4))]
            )

    def test_session_churn_and_resume_mid_window(self, tmp_path):
        """Grow, compact and a save/resume inside the M'+1 window: the
        memo is rebuilt, and the resumed session continues bit for bit
        like the one that never stopped."""
        cfg = PipelineConfig(
            transmission=TransmissionConfig(budget=0.4),
            clustering=ClusteringConfig(num_clusters=3, seed=0),
            forecasting=ForecastingConfig(
                model="ar", max_horizon=2, initial_collection=12,
                retrain_interval=12, membership_lookback=4,
            ),
        )
        trace = walk_trace(steps=50, nodes=12, seed=11)
        live = Engine(cfg).session(10, 1)
        stopped = Engine(cfg).session(10, 1)
        members = np.arange(10)
        for t in range(50):
            if t == 20:  # two nodes join
                for session in (live, stopped):
                    session.grow(2)
                members = np.arange(12)
            if t == 24:  # three leave, one slot later than the joins
                keep = np.asarray([0, 1, 3, 4, 6, 7, 8, 10, 11])
                for session in (live, stopped):
                    session.compact(keep)
                members = members[keep]
            if t == 26:  # mid-window: the memo holds slots 24 and 25
                stopped.save(tmp_path / "mid.ckpt")
                stopped = Engine(cfg).resume(tmp_path / "mid.ckpt")
            a, b = live.ingest(trace[t, members]), stopped.ingest(
                trace[t, members]
            )
            assert (a.node_forecasts is None) == (b.node_forecasts is None)
            for h in a.node_forecasts or {}:
                assert a.node_forecasts[h].tobytes() == (
                    b.node_forecasts[h].tobytes()
                )

    def test_pipeline_rewound_by_set_state(self):
        """set_state onto a pipeline that ran ahead drops its memo."""
        cfg = config(initial=8)
        trace = walk_trace(steps=40, nodes=8, seed=5)
        ahead = OnlinePipeline(8, 1, cfg)
        for t in range(20):
            ahead.step(trace[t])
        state = ahead.get_state()
        reference = OnlinePipeline(8, 1, cfg)
        reference.set_state(state)
        for t in range(20, 30):
            ahead.step(trace[t])
        ahead.set_state(state)
        for t in range(20, 40):
            a, b = ahead.step(trace[t]), reference.step(trace[t])
            for h in a.node_forecasts:
                assert a.node_forecasts[h].tobytes() == (
                    b.node_forecasts[h].tobytes()
                )


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
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_forecast_membership_bit_identical(self, seed, stacked):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        num_clusters = int(rng.integers(1, 9))
        depth = int(rng.integers(1, 8))
        lookback = int(rng.integers(0, 9))
        history = [
            rng.integers(0, num_clusters, size=num_nodes)
            for _ in range(depth)
        ]
        reference = forecast_membership_reference(history, lookback)
        forecast = forecast_membership(
            np.stack(history) if stacked else history, lookback
        )
        np.testing.assert_array_equal(reference, forecast)
        assert forecast.dtype == reference.dtype


def _assert_same_kmeans(result, expected):
    np.testing.assert_array_equal(result.labels, expected.labels)
    assert result.labels.dtype == expected.labels.dtype
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert result.inertia == expected.inertia
    assert result.iterations == expected.iterations


class TestKMeansEquivalence:
    """Node-innermost K-means vs its ``(N, K, d)`` broadcast original."""

    # 120 examples, about 2.5 s.  tolerance = 0.0 runs every restart to
    # max_iterations: a movement of 0.0 never stops the loop there, so
    # neither may labels that repeat.
    @given(
        st.integers(0, 10_000),
        st.sampled_from(DIMS),
        st.sampled_from(["small", "one", "all_but_one"]),
        st.sampled_from(["normal", "duplicates", "grid"]),
        st.booleans(),
        st.sampled_from([0.0, 1e-8, 1e-2]),
        st.sampled_from([1, 2, 100]),
    )
    @settings(max_examples=120, deadline=None)
    def test_kmeans_bit_identical(
        self, seed, dim, clusters, layout, warm, tolerance, max_iterations
    ):
        rng = np.random.default_rng(seed)
        num_points = int(rng.integers(2, 301))
        if clusters == "one":
            num_clusters = 1
        elif clusters == "all_but_one":
            num_clusters = num_points - 1
        else:
            num_clusters = int(rng.integers(1, min(8, num_points) + 1))
        if layout == "duplicates":
            distinct = rng.normal(size=(max(1, num_points // 5), dim))
            points = distinct[rng.integers(0, len(distinct), num_points)]
        elif layout == "grid":  # equidistant points: ties in every step
            points = rng.integers(-2, 2, size=(num_points, dim)) / 4.0
            points[points == 0.0] = -0.0  # a mean's sum starts from +0.0
        else:
            points = rng.normal(size=(num_points, dim))
        initial = None
        if warm:
            initial = points[rng.integers(0, num_points, num_clusters)]
            initial = initial + rng.normal(0, 0.01, initial.shape)
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        options = dict(
            initial_centroids=initial, tolerance=tolerance,
            max_iterations=max_iterations,
        )
        result = kmeans(points, num_clusters, rng=ours, **options)
        expected = kmeans_reference(
            points, num_clusters, rng=theirs, **options
        )
        _assert_same_kmeans(result, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state
        # A last-bit change in the k-means++ distances rarely changes a
        # draw, so the run above cannot see it; compare them directly
        # with the reference's row sum.
        index = int(rng.integers(num_points))
        seeding = _squared_distances_to(points, index)
        row_sum = np.sum((points - points[index]) ** 2, axis=1)
        assert seeding.tobytes() == row_sum.tobytes()

    @pytest.mark.parametrize(
        "num_points, dim, distinct", [(4000, 1, 2), (10_000, 2, 3)]
    )
    def test_fewer_distinct_points_than_clusters(
        self, num_points, dim, distinct
    ):
        # k-means++ runs out of distinct points and draws uniformly from
        # the points not chosen yet.
        rng = np.random.default_rng(num_points)
        values = rng.normal(size=(distinct, dim))
        points = values[rng.integers(0, distinct, num_points)]
        ours = np.random.default_rng(3)
        theirs = np.random.default_rng(3)
        result = kmeans(points, 5, rng=ours)
        expected = kmeans_reference(points, 5, rng=theirs)
        _assert_same_kmeans(result, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    # 60 examples, about 0.1 s.
    @given(
        st.integers(0, 10_000),
        st.sampled_from(DIMS),
        st.sampled_from(["normal", "duplicates", "spread"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plus_plus_draws_bit_identical(self, seed, dim, layout):
        """Each k-means++ draw is ``rng.choice(N, p=...)``'s own
        algorithm without its validation of ``p``: the same centroids
        and the same generator state after them."""
        rng = np.random.default_rng(seed)
        num_points = int(rng.integers(1, 2001))
        num_clusters = int(rng.integers(1, min(10, num_points) + 1))
        if layout == "duplicates":
            distinct = rng.normal(size=(int(rng.integers(1, 4)), dim))
            points = distinct[rng.integers(0, len(distinct), num_points)]
        elif layout == "spread":  # distances from 1e-200 to 1e200
            points = rng.normal(size=(num_points, dim)) * 10.0 ** (
                rng.integers(-100, 101, size=(num_points, 1))
            )
        else:
            points = rng.normal(size=(num_points, dim))
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        seeds = kmeans_plus_plus_init(points, num_clusters, ours)
        expected = _kmeans_plus_plus_init(points, num_clusters, theirs)
        assert seeds.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_overflowing_distances_raise_like_the_reference(self, dim):
        # Squared distances near (2e200)² overflow to inf, so the
        # k-means++ probabilities are NaN and rng.choice rejects them.
        rng = np.random.default_rng(dim)
        points = rng.choice([-1e200, 1e200], size=(40, dim))
        points *= rng.uniform(0.5, 1.5, size=points.shape)
        ours = np.random.default_rng(0)
        theirs = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as raised:
                kmeans(points, 3, rng=ours)
            with pytest.raises(ValueError) as expected:
                kmeans_reference(points, 3, rng=theirs)
        assert str(raised.value) == str(expected.value)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("warm", [False, True])
    def test_overflowing_means_run_to_the_iteration_cap(self, warm):
        # Finite points whose cluster sums overflow: the centroids are
        # inf, every movement is inf or NaN, and the loop runs on to
        # max_iterations although the labels never change.
        points = np.repeat([[1e308, 1.0], [1.5e308, 2.0]], 3, axis=0)
        num_clusters, initial = 1, None
        if warm:
            num_clusters, initial = 2, np.array([[1e308, 1.0], [0.0, 0.0]])
        ours = np.random.default_rng(0)
        theirs = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = kmeans(
                points, num_clusters, rng=ours, initial_centroids=initial,
                max_iterations=20,
            )
            expected = kmeans_reference(
                points, num_clusters, rng=theirs, initial_centroids=initial,
                max_iterations=20,
            )
        assert expected.iterations == 20
        _assert_same_kmeans(result, expected)


class TestClusterMeansEquivalence:
    """``cluster_means`` vs one masked ``mean(axis=0)`` per cluster."""

    # 100 examples, about 0.1 s.
    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 2, 3, 8, 32]),
        st.sampled_from(["normal", "negative_zero", "magnitudes"]),
        st.sampled_from([np.uint8, np.intp]),
    )
    @settings(max_examples=100, deadline=None)
    def test_cluster_means_bit_identical(self, seed, dim, layout, dtype):
        rng = np.random.default_rng(seed)
        num_points = int(rng.integers(1, 400))
        num_clusters = int(rng.integers(1, 12))
        # Some clusters stay empty: labels use only part of range(K).
        used = rng.choice(
            num_clusters, size=int(rng.integers(1, num_clusters + 1)),
            replace=False,
        )
        labels = used[rng.integers(0, used.size, num_points)].astype(dtype)
        if layout == "negative_zero":
            # Whole clusters, and single coordinates, of -0.0: the
            # masked mean's sum starts from +0.0 for d >= 2.
            points = rng.choice([-0.0, 0.5, -1.5], size=(num_points, dim))
            points[np.isin(labels, used[::2])] = -0.0
            points[:, rng.integers(dim)] = -0.0
        elif layout == "magnitudes":
            # Mixed ±1e±300: the order of the additions decides every
            # bit, and whether a sum absorbs its small terms.
            points = rng.choice(
                [1e300, -1e300, 1e-300, -1e-300, 1.0, -3.0],
                size=(num_points, dim),
            )
            points *= rng.uniform(0.5, 2.0, size=points.shape)
        else:
            points = rng.normal(size=(num_points, dim))
        counts = np.bincount(labels, minlength=num_clusters)
        out = rng.normal(size=(num_clusters, dim))
        before = out.copy()
        cluster_means(points, labels, counts, out)
        for j in range(num_clusters):
            members = labels == j
            if members.any():
                expected = points[members].mean(axis=0)
            else:  # an empty cluster's row stays as it was
                expected = before[j]
            assert out[j].tobytes() == expected.tobytes(), j


class TestBatchedCollectionEquivalence:
    """The collection backends vs the per-node oracle loop."""

    @staticmethod
    def assert_same_run(backend, oracle, sim):
        np.testing.assert_array_equal(backend.decisions, oracle.decisions)
        np.testing.assert_array_equal(backend.stored, oracle.stored)
        assert sim.channel.stats.messages == int(backend.decisions.sum())
        # Engine.run's fleet snapshot holds the oracle's columns.
        assert_same_columns(
            FleetState.from_run(backend.stored, backend.decisions),
            sim.fleet,
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_adaptive_backend_matches_oracle(self, seed):
        trace = walk_trace(steps=60, nodes=5, seed=seed)
        budget = float(np.random.default_rng(seed).uniform(0.05, 0.95))
        config = TransmissionConfig(budget=budget)
        backend = collect(trace, config)
        sim = CollectionSimulation(
            5, lambda i: AdaptiveTransmissionPolicy(config)
        )
        self.assert_same_run(backend, sim.run(trace), sim)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_staggered_uniform_backend_matches_oracle(self, seed):
        # The uniform backend's recipe over other phase draws: node i
        # starts its accumulator at the i-th phase, the loop's initial
        # state.
        trace = walk_trace(steps=60, nodes=6, seed=seed)
        phases = np.random.default_rng(seed).uniform(0.0, 1.0, size=6)
        kernel = SLOT_KERNELS.create("uniform", TransmissionConfig(0.3))
        sim = CollectionSimulation(
            6, lambda i: UniformTransmissionPolicy(0.3, phase=phases[i])
        )
        self.assert_same_run(
            run_slot_kernel(kernel, trace, phases), sim.run(trace), sim
        )

    def test_uniform_backend_matches_oracle(self):
        # The backend Engine(policy="uniform").run and Fig. 4 run: node
        # i starts at the i-th draw of the generator seeded with 0, and
        # a shard keeps each node's whole-fleet phase.
        trace = walk_trace(steps=60, nodes=6, seed=7)
        config = TransmissionConfig(budget=0.3)
        phases = np.random.default_rng(0).uniform(0.0, 1.0, size=6)
        sim = CollectionSimulation(
            6, lambda i: UniformTransmissionPolicy(0.3, phase=phases[i])
        )
        oracle = sim.run(trace)
        self.assert_same_run(
            collect(trace, config, backend="uniform"), oracle, sim
        )
        backend = COLLECTION_BACKENDS.get("uniform")
        for lo, hi in ((0, 2), (2, 5), (5, 6)):
            shard = backend(
                trace[:, lo:hi], config, node_offset=lo, total_nodes=6
            )
            np.testing.assert_array_equal(
                shard.decisions, oracle.decisions[:, lo:hi]
            )
            np.testing.assert_array_equal(
                shard.stored, oracle.stored[:, lo:hi]
            )

    def test_heterogeneous_policies_fall_back(self):
        def factory(i):
            if i % 2:
                return UniformTransmissionPolicy(0.3)
            return AdaptiveTransmissionPolicy(TransmissionConfig())

        sim = CollectionSimulation(4, factory)
        result = sim.run(walk_trace(steps=30, nodes=4, seed=0))
        assert result.decisions[0].sum() == 4

    def test_second_run_falls_back_and_continues(self):
        # After a first run the nodes are mid-stream; a second run must
        # continue them (no forced re-transmission).
        sim = CollectionSimulation(
            3, lambda i: AdaptiveTransmissionPolicy(TransmissionConfig())
        )
        first = sim.run(walk_trace(steps=20, nodes=3, seed=1))
        assert first.decisions[0].sum() == 3
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
        vectorized = run_slot_kernel(
            SLOT_KERNELS.create("uniform", TransmissionConfig(0.4)), trace
        )
        sim = CollectionSimulation(
            4, lambda i: UniformTransmissionPolicy(0.4, phase=0.0)
        )
        object_level = sim.run(trace)
        np.testing.assert_array_equal(
            vectorized.decisions, object_level.decisions
        )
        np.testing.assert_array_equal(
            vectorized.stored, object_level.stored
        )
