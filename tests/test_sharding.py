"""Sharded-execution equivalence: shards>1 is bit-identical to one shard.

The collection stage partitions the fleet into contiguous node shards
(optionally worked by several threads); clustering and forecasting run
on the merged ``z_t`` matrix, so every downstream number must be
exactly the single-shard run's.
"""

import json

import numpy as np
import pytest

from repro.api import Engine
from repro.cli import main as cli_main
from repro.core.config import PipelineConfig
from repro.exceptions import ConfigurationError


def small_config(**overrides):
    params = dict(
        num_clusters=2,
        budget=0.3,
        max_horizon=2,
        initial_collection=25,
        retrain_interval=25,
    )
    params.update(overrides)
    return PipelineConfig.small(**params)


def walk_trace(steps=90, nodes=13, seed=0, dim=None):
    rng = np.random.default_rng(seed)
    shape = (steps, nodes) if dim is None else (steps, nodes, dim)
    return np.clip(0.5 + np.cumsum(rng.normal(0, 0.03, shape), axis=0), 0, 1)


class TestShardedEquivalence:
    @pytest.mark.parametrize(
        "backend", ["adaptive", "uniform", "perfect", "deadband"]
    )
    @pytest.mark.parametrize("shards", [2, 5])
    def test_bit_identical_to_single_shard(self, backend, shards):
        trace = walk_trace(seed=3)
        cfg = small_config()
        single = Engine(cfg, policy=backend).run(trace)
        sharded = Engine(cfg, policy=backend).run(trace, shards=shards)
        np.testing.assert_array_equal(single.stored, sharded.stored)
        np.testing.assert_array_equal(single.decisions, sharded.decisions)
        assert single.rmse_by_horizon == sharded.rmse_by_horizon
        assert single.intermediate_rmse == sharded.intermediate_rmse
        assert single.forecast_start == sharded.forecast_start
        assert sharded.shards == shards

    def test_multiresource_sharding(self):
        trace = walk_trace(steps=60, nodes=9, seed=5, dim=2)
        cfg = small_config()
        single = Engine(cfg).run(trace)
        sharded = Engine(cfg).run(trace, shards=4)
        np.testing.assert_array_equal(single.stored, sharded.stored)
        assert single.rmse_by_horizon == sharded.rmse_by_horizon

    def test_process_pool_matches_serial(self):
        trace = walk_trace(steps=60, nodes=8, seed=7)
        cfg = small_config()
        serial = Engine(cfg).run(trace, shards=4)
        pooled = Engine(cfg).run(trace, shards=4, workers=2)
        assert pooled.decisions.dtype == serial.decisions.dtype
        np.testing.assert_array_equal(serial.stored, pooled.stored)
        np.testing.assert_array_equal(serial.decisions, pooled.decisions)
        assert serial.rmse_by_horizon == pooled.rmse_by_horizon

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "backend", ["adaptive", "uniform", "perfect", "deadband"]
    )
    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_workers_never_change_a_bit(self, workers, backend, dtype):
        trace = walk_trace(seed=19)
        cfg = small_config(dtype=dtype)
        single = Engine(cfg, policy=backend).run(trace)
        sharded = Engine(cfg, policy=backend).run(
            trace, shards=5, workers=workers
        )
        assert sharded.stored.dtype == np.dtype(dtype)
        assert single.decisions.dtype == np.int64
        assert sharded.decisions.dtype == np.int64
        np.testing.assert_array_equal(single.stored, sharded.stored)
        np.testing.assert_array_equal(single.decisions, sharded.decisions)
        assert sharded.transport.messages == single.transport.messages
        assert (
            sharded.transport.payload_floats
            == single.transport.payload_floats
        )
        assert (
            sharded.transport.per_node_messages
            == single.transport.per_node_messages
        )
        assert single.rmse_by_horizon == sharded.rmse_by_horizon

    def test_shards_equal_to_fleet_size(self):
        trace = walk_trace(steps=40, nodes=5, seed=9)
        cfg = small_config()
        single = Engine(cfg).run(trace)
        sharded = Engine(cfg).run(trace, shards=5)
        np.testing.assert_array_equal(single.stored, sharded.stored)


class TestShardedProvenance:
    def test_transport_reduction_matches_decisions(self):
        trace = walk_trace(seed=11)
        result = Engine(small_config()).run(trace, shards=3)
        assert result.transport is not None
        assert result.transport.messages == int(result.decisions.sum())
        assert result.transport.payload_floats == int(result.decisions.sum())
        per_node = result.decisions.sum(axis=0)
        assert result.transport.per_node_messages == {
            i: int(c) for i, c in enumerate(per_node) if c
        }

    def test_fleet_snapshot_single_and_sharded(self):
        trace = walk_trace(seed=13)
        for shards in (1, 4):
            result = Engine(small_config()).run(trace, shards=shards)
            # Transport provenance is populated whether or not the run
            # was sharded (derived from the decisions either way).
            assert result.transport.messages == int(result.decisions.sum())
            fleet = result.fleet
            assert fleet is not None
            assert fleet.num_nodes == trace.shape[1]
            np.testing.assert_array_equal(
                fleet.stored, result.stored[-1]
            )
            np.testing.assert_array_equal(
                fleet.message_counts, result.decisions.sum(axis=0)
            )
            np.testing.assert_array_equal(
                fleet.times, np.full(trace.shape[1], trace.shape[0])
            )
            # Policy accumulators are explicitly untracked in
            # trace-level snapshots — NaN, never stale zeros.
            assert np.isnan(fleet.policy_state).all()
            # last_update is each node's last transmitting slot.
            for i in range(trace.shape[1]):
                sent = np.flatnonzero(result.decisions[:, i])
                expected = sent[-1] if sent.size else -1
                assert fleet.last_update[i] == expected

    def test_sharded_fleet_counts_share_transport_array(self):
        result = Engine(small_config()).run(walk_trace(seed=17), shards=2)
        assert (
            result.transport.per_node_messages
            == {
                i: int(c)
                for i, c in enumerate(result.fleet.message_counts)
                if c
            }
        )


class TestShardingValidation:
    def test_invalid_shards(self):
        trace = walk_trace(steps=20, nodes=4)
        with pytest.raises(ConfigurationError):
            Engine(small_config()).run(trace, shards=0)
        with pytest.raises(ConfigurationError):
            Engine(small_config()).run(trace, shards=5)  # > num_nodes

    def test_invalid_workers(self):
        trace = walk_trace(steps=20, nodes=4)
        with pytest.raises(ConfigurationError):
            Engine(small_config()).run(trace, shards=2, workers=0)

    def test_workers_require_sharding(self):
        # workers without shards would otherwise be silently ignored.
        trace = walk_trace(steps=20, nodes=4)
        with pytest.raises(ConfigurationError, match="shards"):
            Engine(small_config()).run(trace, workers=4)


class TestShardedCli:
    def _config_path(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = small_config()
        path.write_text(json.dumps(cfg.to_dict()))
        return str(path)

    def test_run_config_with_shards(self, tmp_path, capsys):
        code = cli_main([
            "run", "--config", self._config_path(tmp_path),
            "--nodes", "8", "--steps", "80", "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shards" in out
        assert "RMSE" in out

    def test_shards_require_config_mode(self, tmp_path, capsys):
        code = cli_main(["run", "fig3_transmission", "--shards", "2"])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_invalid_shards_is_a_clean_error(self, tmp_path, capsys):
        code = cli_main([
            "run", "--config", self._config_path(tmp_path),
            "--nodes", "4", "--steps", "40", "--shards", "9",
        ])
        assert code == 2
        assert "shards" in capsys.readouterr().err
