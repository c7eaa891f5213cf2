"""Import boundary: scipy loads at the first ARIMA or Holt fit.

``import repro`` and every path that needs no scipy (the sample-hold,
mean, SES and AR banks, clustering, collection, checkpoints and the
CLI) must leave scipy unloaded, so a restarted central node resumes
without paying for scipy's import (DESIGN.md, "Import boundary").  Only
``repro.forecasting.arima.model`` and ``repro.forecasting.exponential``
use scipy, and only inside the ARIMA fit and filter functions and the
Holt and Holt–Winters fits; SES fits its weight with the module's own
bounded Brent minimizer.

The check runs in a fresh interpreter: other test modules import scipy
when pytest collects them.
"""

import os
import subprocess
import sys

import repro

SCRIPT = r"""
import importlib
import os
import pkgutil
import sys
import tempfile

import numpy as np

import repro
from repro import ClusteringConfig, Engine, ForecastingConfig, PipelineConfig
from repro.cli import main


def scipy_modules():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )


def config(model):
    return PipelineConfig(
        clustering=ClusteringConfig(num_clusters=2, seed=0),
        forecasting=ForecastingConfig(
            model=model, max_horizon=3, initial_collection=10,
            retrain_interval=20, arima_max_p=1, arima_max_d=0,
            arima_max_q=1, seed=0,
        ),
    )


for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
assert main(["list"]) == 0

rng = np.random.default_rng(0)
trace = 0.5 + np.cumsum(rng.normal(0.0, 0.02, size=(60, 12)), axis=0)
with tempfile.TemporaryDirectory() as tmp:
    for model in ("sample_hold", "mean", "ses", "ar"):
        engine = Engine(config(model))
        session = engine.session(12, 1)
        # First fit at slot 10, a retrain at slot 30.
        for row in trace[:40]:
            session.ingest(row)
        path = session.save(os.path.join(tmp, model + ".ckpt"))
        resumed = engine.resume(path)
        for row in trace[40:]:
            resumed.ingest(row)
        assert np.isfinite(resumed.forecast()[1]).all(), model
for model in ("ar", "ses"):
    result = Engine(config(model)).run(trace, shards=2, workers=2)
    assert np.isfinite(result.rmse_by_horizon[1]), model
loaded = scipy_modules()
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:5]}"

for model in ("holt", "arima"):
    session = Engine(config(model)).session(12, 1)
    for row in trace[:15]:
        session.ingest(row)
    assert np.isfinite(session.forecast()[1]).all(), model
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_scipy_loads_only_at_the_first_fit_that_needs_it():
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "ok"
