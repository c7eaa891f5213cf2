"""Documentation and packaging sanity checks.

Keeps README code snippets, the example scripts, and the public API
surface from drifting apart.
"""

import ast
import importlib
import os
import pkgutil
import re
import runpy

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples")


def _packages():
    """``repro`` and every package under it."""
    import repro

    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


class TestReadmeSnippet:
    def test_quickstart_snippet_runs(self):
        # The exact code block from README.md §Quickstart, at tiny scale.
        from repro import Engine, PipelineConfig
        from repro.datasets import load_alibaba_like

        dataset = load_alibaba_like(num_nodes=12, num_steps=120)
        engine = Engine(PipelineConfig.small(
            num_clusters=3, budget=0.3, max_horizon=2,
            initial_collection=40, retrain_interval=40,
        ))
        result = engine.run(dataset.resource("cpu"))
        assert 0 in result.rmse_by_horizon
        assert 1 in result.rmse_by_horizon
        assert 0 <= result.intermediate_rmse < 1
        assert 0 < result.decisions.mean() <= 1
        assert result.timings["total"] > 0

    def test_scaling_snippet_runs(self):
        # The code block from README.md §Scaling quickstart, at tiny
        # scale (the README uses 10k nodes; the invariants are the same).
        from repro import Engine, PipelineConfig
        from repro.datasets import load_alibaba_like

        dataset = load_alibaba_like(num_nodes=16, num_steps=100)
        engine = Engine(PipelineConfig.small(
            initial_collection=30, retrain_interval=30,
        ))
        result = engine.run(dataset.resource("cpu"), shards=4)
        assert result.transport.messages == int(result.decisions.sum())
        assert result.fleet.message_counts.shape == (16,)
        assert result.fleet.last_update.shape == (16,)
        pooled = engine.run(
            dataset.resource("cpu"), shards=4, workers=2
        )
        assert pooled.rmse_by_horizon == result.rmse_by_horizon

    def test_sessions_snippet_runs(self, tmp_path):
        # The code block from README.md §Sessions and checkpoints, at
        # tiny scale.
        import numpy as np

        from repro import Engine, PipelineConfig

        config = PipelineConfig.small(
            initial_collection=20, retrain_interval=20, max_horizon=3,
        )
        engine = Engine(config)
        session = engine.session(
            num_nodes=12, num_resources=1, reorder_window=2
        )
        rng = np.random.default_rng(0)
        trace = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.04, (30, 12)), axis=0), 0, 1
        )
        for t in range(30):
            session.ingest(trace[t])
        session.ingest(trace[29][[3]], node_ids=[3])
        session.ingest(trace[28][[9]], node_ids=[9], t=29)
        forecasts = session.forecast(horizons=[1, 3])
        assert forecasts[1].shape == (12, 1)
        path = session.save(tmp_path / "monitor.ckpt")
        resumed = Engine(config).resume(path)
        assert resumed.time == session.time
        assert resumed.late_applied + resumed.late_dropped == 1

    def test_scenarios_snippet_runs(self):
        # The code block from README.md §Scenarios, at tiny scale.
        from repro.scenarios import (
            ChurnEvent,
            ChurnSchedule,
            LinkConfig,
            ScenarioSpec,
            run_scenario,
        )

        report = run_scenario(ScenarioSpec(
            name="mine", source="google", num_steps=80,
            total_nodes=12, initial_nodes=9,
            link=LinkConfig(
                loss=0.05, latency=2, uplinks=2, uplink_capacity=8, seed=1
            ),
            churn=ChurnSchedule([
                ChurnEvent(slot=40, kind="join", count=2),
                ChurnEvent(slot=60, kind="crash", count=1),
            ]),
        ))
        assert report.conserved
        assert "conserved" in report.summary()
        assert report.final_nodes == 11

    def test_readme_migration_table_mentions_old_entry_points(self):
        with open(os.path.join(REPO_ROOT, "MIGRATING.md")) as handle:
            text = handle.read()
        for name in ("run_pipeline", "MonitoringSystem", "Engine",
                     "from_config", "registry", "session.ingest",
                     "resume"):
            assert name in text, name


class TestExamples:
    def test_all_examples_exist_and_parse(self):
        expected = {
            "quickstart.py",
            "capacity_planning.py",
            "anomaly_detection.py",
            "bandwidth_budgeting.py",
            "reproduce_paper.py",
        }
        present = {
            name for name in os.listdir(EXAMPLES) if name.endswith(".py")
        }
        assert expected <= present
        for name in expected:
            with open(os.path.join(EXAMPLES, name)) as handle:
                source = handle.read()
            tree = ast.parse(source)
            # Every example is runnable (has a main guard) and documented.
            assert ast.get_docstring(tree), name
            assert "__main__" in source, name

    @pytest.mark.parametrize("name", [
        "quickstart.py",
        "capacity_planning.py",
        "anomaly_detection.py",
        "bandwidth_budgeting.py",
        "forecast_intervals.py",
    ])
    def test_example_main_runs(self, name, capsys):
        # reproduce_paper.py runs every experiment and is left out.
        runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
        assert capsys.readouterr().out

    def test_examples_import_only_public_api(self):
        # Examples must not reach into underscore-private modules.
        for name in os.listdir(EXAMPLES):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(EXAMPLES, name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    assert not any(
                        part.startswith("_")
                        for part in node.module.split(".")
                    ), (name, node.module)


class TestPublicApi:
    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_importable(self):
        for module in _packages():
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_every_export_has_a_caller_outside_tests(self):
        # Every ``__all__`` name but ``__version__`` is read somewhere
        # outside tests/ (an AST Name, Attribute or ImportFrom alias; the
        # package __init__ re-exports do not count) or named in
        # backticks in the docs.
        used = set()
        for top in ("src", "examples", "benchmarks", "perfbench", "tools"):
            for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, top)):
                for name in files:
                    if not name.endswith(".py") or (
                        top == "src" and name == "__init__.py"
                    ):
                        continue
                    with open(os.path.join(dirpath, name)) as handle:
                        tree = ast.parse(handle.read())
                    for node in ast.walk(tree):
                        if isinstance(node, ast.Name):
                            used.add(node.id)
                        elif isinstance(node, ast.Attribute):
                            used.add(node.attr)
                        elif isinstance(node, ast.ImportFrom):
                            used.update(alias.name for alias in node.names)
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            with open(os.path.join(REPO_ROOT, doc)) as handle:
                text = handle.read()
            # Fenced blocks first, so their fences do not pair up with
            # inline code spans.
            fenced = re.compile(r"```.*?```", flags=re.S)
            spans = fenced.findall(text)
            spans += re.findall(r"`([^`]+)`", fenced.sub("", text))
            for span in spans:
                used.update(re.findall(r"\w+", span))
        unused = [
            f"{module.__name__}.{name}"
            for module in _packages()
            for name in module.__all__
            if name not in used and name != "__version__"
        ]
        assert not unused, unused

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestDocumentationFiles:
    @pytest.mark.parametrize(
        "filename", ["README.md", "DESIGN.md"]
    )
    def test_docs_exist_and_mention_paper(self, filename):
        path = os.path.join(REPO_ROOT, filename)
        assert os.path.exists(path)
        with open(path) as handle:
            text = handle.read()
        assert "ICDCS" in text or "Tuor" in text

    def test_design_maps_every_experiment(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as handle:
            text = handle.read()
        for artifact in (
            "Fig. 1", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
            "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
            "Table I", "Table II", "Table III", "Table IV",
        ):
            assert artifact in text, artifact
