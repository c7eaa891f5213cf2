"""ShardPool: the thread shard runner is bit-identical.

The runner works node ranges on the calling thread plus helper
threads; its contract is that its results match the single-shard run
bit for bit — values and dtypes — for every registered backend and
both column dtypes, across pool reuse (including fleets that grow or
shrink between requests while the same helpers keep running).
"""

import sys

import numpy as np
import pytest

from repro.api import Engine
from repro.core.config import PipelineConfig, TransmissionConfig
from repro.core.types import validate_trace
from repro.exceptions import ConfigurationError, SimulationError
from repro.registry import COLLECTION_BACKENDS
from repro.simulation.collection import collect
from repro.simulation.fleet import shard_slices
from repro.simulation.shard_pool import ShardPool, shard_aware_kwargs

BACKENDS = ("adaptive", "uniform", "deadband", "perfect")


def walk_trace(steps=30, nodes=11, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    walk = np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.03, (steps, nodes)), axis=0), 0, 1
    )
    return walk.astype(dtype)


def pool_collect(pool, backend, trace, shards=3, budget=0.3):
    config = TransmissionConfig(budget=budget)
    data = validate_trace(trace, dtype=trace.dtype)
    ranges = shard_slices(data.shape[1], shards)
    return pool.collect(backend, data, config, ranges)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_in_process(self, backend, dtype):
        trace = walk_trace(dtype=dtype)
        expected = collect(trace, TransmissionConfig(budget=0.3),
                           backend=backend)
        with ShardPool(workers=2) as pool:
            stored, decisions = pool_collect(pool, backend, trace)
        assert stored.dtype == np.dtype(dtype)
        assert decisions.dtype == expected.decisions.dtype
        np.testing.assert_array_equal(expected.stored, stored)
        np.testing.assert_array_equal(expected.decisions, decisions)

    def test_more_shards_than_workers(self):
        trace = walk_trace(nodes=13, seed=3)
        expected = collect(trace, TransmissionConfig(budget=0.3))
        with ShardPool(workers=2) as pool:
            stored, decisions = pool_collect(
                pool, "adaptive", trace, shards=7
            )
        assert decisions.dtype == expected.decisions.dtype
        np.testing.assert_array_equal(expected.stored, stored)
        np.testing.assert_array_equal(expected.decisions, decisions)

    def test_more_workers_than_shards(self):
        trace = walk_trace(nodes=5, seed=4)
        expected = collect(trace, TransmissionConfig(budget=0.3))
        with ShardPool(workers=4) as pool:
            stored, decisions = pool_collect(
                pool, "adaptive", trace, shards=2
            )
        np.testing.assert_array_equal(expected.stored, stored)
        np.testing.assert_array_equal(expected.decisions, decisions)

    def test_single_worker_single_shard(self):
        trace = walk_trace(seed=5)
        expected = collect(trace, TransmissionConfig(budget=0.3))
        with ShardPool(workers=1) as pool:
            stored, decisions = pool_collect(
                pool, "adaptive", trace, shards=1
            )
        assert decisions.dtype == expected.decisions.dtype
        np.testing.assert_array_equal(expected.stored, stored)
        np.testing.assert_array_equal(expected.decisions, decisions)


class TestThreadStress:
    def test_more_threads_than_cores_with_short_switch_interval(self):
        """Every range's result lands in its own slot, under preemption.

        Eight threads on fewer cores, switching every microsecond: a
        lost or misplaced shard result would break bit-identity.
        """
        trace = walk_trace(steps=20, nodes=64, seed=21)
        expected = collect(trace, TransmissionConfig(budget=0.3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardPool(workers=8) as pool:
                for _ in range(5):
                    stored, decisions = pool_collect(
                        pool, "adaptive", trace, shards=32
                    )
                    np.testing.assert_array_equal(expected.stored, stored)
                    np.testing.assert_array_equal(
                        expected.decisions, decisions
                    )
        finally:
            sys.setswitchinterval(interval)


class TestReuseAndChurn:
    def test_pool_survives_fleet_growth_and_compaction(self):
        """One pool services fleets of changing size, request by request.

        The same helper threads must track a fleet that grows and then
        compacts — nothing from the previous request's shapes may leak
        into the next.
        """
        with ShardPool(workers=2) as pool:
            for seed, nodes in ((1, 8), (2, 20), (3, 6), (4, 20)):
                trace = walk_trace(nodes=nodes, seed=seed)
                expected = collect(trace, TransmissionConfig(budget=0.3))
                stored, decisions = pool_collect(
                    pool, "adaptive", trace, shards=min(3, nodes)
                )
                np.testing.assert_array_equal(expected.stored, stored)
                np.testing.assert_array_equal(
                    expected.decisions, decisions
                )

    def test_pool_switches_backend_between_requests(self):
        trace = walk_trace(seed=7)
        with ShardPool(workers=2) as pool:
            for backend in BACKENDS:
                expected = collect(
                    trace, TransmissionConfig(budget=0.3), backend=backend
                )
                stored, _ = pool_collect(pool, backend, trace)
                np.testing.assert_array_equal(expected.stored, stored)

    def test_pool_switches_dtype_between_requests(self):
        with ShardPool(workers=2) as pool:
            for dtype in (np.float64, np.float32, np.float64):
                trace = walk_trace(seed=9, dtype=dtype)
                expected = collect(trace, TransmissionConfig(budget=0.3))
                stored, _ = pool_collect(pool, "adaptive", trace)
                assert stored.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(expected.stored, stored)


class TestErrorsAndLifecycle:
    def test_unknown_backend_fails_fast_and_pool_survives(self):
        trace = walk_trace(seed=11)
        with ShardPool(workers=2) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool_collect(pool, "no_such_backend", trace)
            # The failed request never reached the workers; the pool
            # keeps servicing.
            expected = collect(trace, TransmissionConfig(budget=0.3))
            stored, _ = pool_collect(pool, "adaptive", trace)
            np.testing.assert_array_equal(expected.stored, stored)

    def test_worker_error_is_reported_and_pool_survives(self):
        def exploding_backend(trace, config):
            raise ValueError("boom in the worker")

        COLLECTION_BACKENDS.register("_test_exploding", exploding_backend)
        try:
            trace = walk_trace(seed=13)
            # Every worker, the calling thread and the helper, fails
            # inside collect; the backend's own error propagates as is.
            with ShardPool(workers=2) as pool:
                with pytest.raises(ValueError, match="boom"):
                    pool_collect(pool, "_test_exploding", trace)
                expected = collect(trace, TransmissionConfig(budget=0.3))
                stored, _ = pool_collect(pool, "adaptive", trace)
                np.testing.assert_array_equal(expected.stored, stored)
        finally:
            del COLLECTION_BACKENDS._entries["_test_exploding"]

    def test_helper_error_propagates_and_pool_survives(self):
        def helper_only_failure(trace, config, node_offset=0,
                                total_nodes=None):
            # With 2 shards and 2 workers, only the helper thread's
            # range starts past node 0.
            if node_offset:
                raise ValueError("boom in the helper")
            return collect(trace, config)

        COLLECTION_BACKENDS.register("_test_helper_fails", helper_only_failure)
        try:
            trace = walk_trace(seed=15)
            with ShardPool(workers=2) as pool:
                with pytest.raises(ValueError, match="helper"):
                    pool_collect(pool, "_test_helper_fails", trace, shards=2)
                expected = collect(trace, TransmissionConfig(budget=0.3))
                stored, _ = pool_collect(pool, "adaptive", trace)
                np.testing.assert_array_equal(expected.stored, stored)
        finally:
            del COLLECTION_BACKENDS._entries["_test_helper_fails"]

    def test_close_is_idempotent_and_collect_after_close_raises(self):
        pool = ShardPool(workers=1)
        pool.close()
        pool.close()
        with pytest.raises(SimulationError, match="closed"):
            pool_collect(pool, "adaptive", walk_trace(steps=5, nodes=3))

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ShardPool(workers=0)

    def test_non_3d_trace_rejected(self):
        with ShardPool(workers=1) as pool:
            with pytest.raises(SimulationError, match=r"\(T, N, d\)"):
                pool.collect(
                    "adaptive",
                    np.zeros((4, 3)),
                    TransmissionConfig(),
                    [(0, 3)],
                )


class TestShardAwareKwargs:
    def test_opt_in_signature(self):
        def fleet_aware(trace, config, node_offset=0, total_nodes=None):
            pass

        def per_node(trace, config):
            pass

        assert shard_aware_kwargs(fleet_aware, 5, 20) == {
            "node_offset": 5,
            "total_nodes": 20,
        }
        assert shard_aware_kwargs(per_node, 5, 20) == {}
        assert shard_aware_kwargs(len, 0, 1) == {}


class TestEngineIntegration:
    def _config(self):
        return PipelineConfig.small(
            num_clusters=2, initial_collection=20, retrain_interval=20
        )

    def test_shared_pool_run_matches_serial(self):
        trace = walk_trace(steps=60, nodes=9, seed=17)
        cfg = self._config()
        serial = Engine(cfg).run(trace, shards=3)
        shared = Engine(cfg).run(trace, shards=3, workers=2)
        assert shared.decisions.dtype == serial.decisions.dtype
        np.testing.assert_array_equal(serial.stored, shared.stored)
        np.testing.assert_array_equal(serial.decisions, shared.decisions)
        assert serial.rmse_by_horizon == shared.rmse_by_horizon
