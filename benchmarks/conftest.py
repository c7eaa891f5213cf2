"""Shared benchmark fixtures.

Each benchmark module regenerates one table or figure of the paper at a
laptop-scale configuration (recorded in EXPERIMENTS.md).  Results are
printed to stdout (run with ``-s`` to see them live) and written to
``benchmarks/results/`` twice over: the human-readable table as
``<name>.txt`` (pasted into EXPERIMENTS.md by
``update_experiments_md.py``) and a machine-readable ``<name>.json``
carrying the same text plus whatever structured rows the benchmark
passed as ``data`` — so the bench trajectory can be tracked
programmatically across commits instead of by diffing prose.
"""

import json
import os
import sys

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The per-node collection oracle (tests/collection_oracle.py) is the
# reference some benchmarks time the shipped kernels against.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests")
)


@pytest.fixture
def record_result():
    """Write a named experiment report to benchmarks/results/.

    ``writer(name, text, data=None)`` writes ``<name>.txt`` (the
    rendered table) and ``<name>.json`` (machine-readable: the same
    text plus the optional ``data`` payload of JSON-able rows).
    """

    def writer(name: str, text: str, data=None) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as handle:
            json.dump(
                {"name": name, "text": text, "data": data},
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"\n=== {name} ===\n{text}")

    return writer


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
