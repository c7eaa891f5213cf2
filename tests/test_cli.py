"""Tests for the command-line interface."""

import json
import zipfile

import pytest

from repro.cli import main
from repro.core.config import PipelineConfig


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "table2" in out
        assert "ablation_reindexing" in out

    def test_list_shows_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "forecasters" in out
        assert "sample_hold" in out
        assert "collection backends" in out
        assert "perfect" in out
        assert "similarity measures" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_run_small_experiment(self, capsys):
        code = main(["run", "fig3", "--nodes", "10", "--steps", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "alibaba" in out

    def test_run_fig12_ignores_steps_override(self, capsys):
        # fig12 takes train_steps/test_steps, not num_steps; the CLI
        # should drop the inapplicable override instead of crashing.
        code = main(["run", "fig12", "--nodes", "30", "--steps", "100"])
        assert code == 0

    def test_run_nothing_given(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_run_config_file(self, capsys, tmp_path):
        config = PipelineConfig.small(
            initial_collection=30, retrain_interval=30, max_horizon=2
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        code = main([
            "run", "--config", str(path), "--nodes", "8", "--steps", "90",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE(h=0)" in out
        assert "timings" in out
        assert "model=sample_hold" in out

    def test_run_config_collects_with_the_policy(self, capsys, tmp_path):
        config = PipelineConfig.small(
            initial_collection=30, retrain_interval=30, max_horizon=2
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        for policy in ("uniform", "perfect"):
            code = main([
                "run", "--config", str(path), "--nodes", "8",
                "--steps", "60", "--policy", policy,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"collection={policy} " in out
        assert "RMSE(h=0) = 0.0000" in out

    def test_policy_with_experiments_rejected(self, capsys):
        assert main(["run", "fig3", "--policy", "uniform"]) == 2
        assert "--policy only applies" in capsys.readouterr().err

    def test_collection_option_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig3", "--collection", "uniform"])
        assert excinfo.value.code == 2
        assert "--collection" in capsys.readouterr().err

    def test_run_config_missing_file(self, capsys, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_config_invalid_contents(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"forecasting": {"model": "nope"}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_run_config_and_experiments_exclusive(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(PipelineConfig().to_dict()))
        assert main(["run", "fig3", "--config", str(path)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_demo(self, capsys):
        code = main(
            ["demo", "--nodes", "10", "--steps", "120", "--clusters", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE(h=0)" in out
        assert "transmission frequency" in out

    @pytest.mark.parametrize("dtype,width", [("float64", 8), ("float32", 4)])
    def test_stream_payload_bytes_follow_the_dtype(
        self, capsys, tmp_path, dtype, width
    ):
        config = PipelineConfig.small(
            initial_collection=10, retrain_interval=10, max_horizon=2
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        path = tmp_path / "mid.ckpt"
        assert main([
            "run", "--config", str(config_path), "--stream", "--nodes",
            "10", "--steps", "20", "--dtype", dtype,
            "--checkpoint", str(path),
        ]) == 0
        # One float per message (d = 1): 60 messages at B = 0.3.
        assert f"(60 messages, {60 * width} payload bytes)" in (
            capsys.readouterr().out
        )
        # A resumed checkpoint counts in its own dtype too.
        assert main(["run", "--resume", str(path), "--steps", "30"]) == 0
        assert f"(91 messages, {91 * width} payload bytes)" in (
            capsys.readouterr().out
        )

    def test_resume_of_a_corrupt_checkpoint_fails_loudly(
        self, capsys, tmp_path
    ):
        config = PipelineConfig.small(
            initial_collection=20, retrain_interval=20, max_horizon=2
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        path = tmp_path / "mid.ckpt"
        assert main([
            "run", "--config", str(config_path), "--stream", "--nodes",
            "8", "--steps", "30", "--checkpoint", str(path),
        ]) == 0
        with zipfile.ZipFile(path) as archive:
            largest = max(
                (i for i in archive.infolist() if i.filename.endswith(".npy")),
                key=lambda i: i.file_size,
            )
        data = bytearray(path.read_bytes())
        # The last byte of the largest array member's payload.
        local = largest.header_offset
        lengths = int.from_bytes(data[local + 26 : local + 28], "little")
        lengths += int.from_bytes(data[local + 28 : local + 30], "little")
        data[local + 30 + lengths + largest.compress_size - 1] ^= 0xFF
        path.write_bytes(data)
        capsys.readouterr()
        assert main(["run", "--resume", str(path), "--steps", "60"]) == 2
        err = capsys.readouterr().err
        assert "CheckpointError" in err
        assert "CRC-32" in err


def _exit_code(argv):
    """``main``'s exit code, also when argparse rejects ``argv``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    config = PipelineConfig.small(
        initial_collection=10, retrain_interval=10, max_horizon=2
    )
    path = tmp_path_factory.mktemp("cli") / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def float64_checkpoint(config_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a.ckpt"
    assert main([
        "run", "--config", config_path, "--stream", "--nodes", "6",
        "--steps", "12", "--checkpoint", str(path),
    ]) == 0
    return str(path)


class TestCountsAndUnappliedFlags:
    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--config", "CONFIG", "--stream", "--checkpoint",
                      "CKPT", "--checkpoint-every", "0"],
                     id="stream-checkpoint-every-0"),
        pytest.param(["run", "--config", "CONFIG", "--stream", "--checkpoint",
                      "CKPT", "--checkpoint-every", "-5"],
                     id="stream-checkpoint-every-negative"),
        pytest.param(["run", "--config", "CONFIG", "--steps", "0"],
                     id="config-steps-0"),
        pytest.param(["run", "--config", "CONFIG", "--stream", "--steps", "0"],
                     id="stream-steps-0"),
        pytest.param(["run", "--config", "CONFIG", "--nodes", "0"],
                     id="config-nodes-0"),
        pytest.param(["run", "--config", "CONFIG", "--shards", "0"],
                     id="config-shards-0"),
        pytest.param(["run", "--config", "CONFIG", "--workers", "0"],
                     id="config-workers-0"),
        pytest.param(["run", "fig3", "--nodes", "0"], id="fig3-nodes-0"),
        pytest.param(["demo", "--nodes", "0"], id="demo-nodes-0"),
        pytest.param(["demo", "--steps", "0"], id="demo-steps-0"),
        pytest.param(["demo", "--clusters", "0"], id="demo-clusters-0"),
    ])
    def test_counts_below_one_are_usage_errors(
        self, capsys, tmp_path, config_path, argv
    ):
        paths = {"CONFIG": config_path, "CKPT": str(tmp_path / "x.ckpt")}
        argv = [paths.get(arg, arg) for arg in argv]
        assert _exit_code(argv) == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_a_library_error_is_one_line_and_exit_two(self, capsys):
        assert _exit_code(["demo", "--budget", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigurationError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--resume", "CKPT", "--dtype", "float32"], "--dtype"),
        (["run", "--resume", "CKPT", "--shards", "3"], "--shards"),
        (["run", "--scenario", "ideal", "--steps", "40", "--dtype",
          "float32"], "--dtype"),
        (["run", "--scenario", "ideal", "--steps", "40", "--shards", "2"],
         "--shards"),
        (["run", "--config", "CONFIG", "--stream", "--steps", "12",
          "--shards", "2", "--workers", "2"], "--shards"),
    ], ids=["resume-dtype", "resume-shards", "scenario-dtype",
            "scenario-shards", "stream-shards"])
    def test_flags_the_run_does_not_apply_are_rejected(
        self, capsys, config_path, float64_checkpoint, argv, flag
    ):
        paths = {"CONFIG": config_path, "CKPT": float64_checkpoint}
        argv = [paths.get(arg, arg) for arg in argv]
        capsys.readouterr()
        assert _exit_code(argv) == 2
        assert flag in capsys.readouterr().err

    def test_resume_accepts_the_checkpoints_own_dtype(
        self, capsys, float64_checkpoint
    ):
        assert main([
            "run", "--resume", float64_checkpoint, "--dtype", "float64",
            "--steps", "16",
        ]) == 0
        assert "slots 12..15" in capsys.readouterr().out
