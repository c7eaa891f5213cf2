#!/usr/bin/env python3
"""Mutation ledger: deliberate faults, and the tests that must catch them.

Each entry names a file, an exact piece of its text, the text that
replaces it, and the test ids expected to fail once it is replaced.
The script copies ``src/``, ``tests/``, ``tools/`` (the linter's
tests lint the copied tree) and ``pyproject.toml`` into a temporary
directory, checks that the named tests pass there unchanged, then
applies one mutant at a time and runs only its named tests.  Each
mutant is reported as:

* ``killed`` — a named test failed;
* ``survived`` — every named test passed, so nothing pins that line;
* ``stale`` — the old text no longer occurs exactly once in the file,
  so the entry must be updated to the code as it is now.

It exits non-zero if any mutant survived or is stale.

Run from the repository root:
    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
KERNEL_TESTS = "tests/test_transmission.py::TestSlotKernelEdgeCases"
SESSION_PINS = "tests/test_session.py::TestVectorizedObjectEquivalence"
LINT_CLEAN = "tests/test_lint.py::test_shipped_tree_lints_clean"
SLOT_SCORER = "tests/test_api.py::TestSlotScorer::test_matches_batched_scoring"
GUARANTEES = "tests/test_transmission_guarantees.py"
QUEUE_BOUNDS = f"{GUARANTEES}::test_adaptive_queue_stays_within_its_bounds"
MESSAGE_IDENTITY = (
    f"{GUARANTEES}::test_adaptive_messages_are_budget_plus_queue"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  #: File to mutate, relative to the repository root.
    old: str  #: Exact text that must occur once in the file.
    new: str
    tests: Tuple[str, ...]  #: Test ids expected to kill the mutant.


LEDGER: Tuple[Mutant, ...] = (
    Mutant(
        name="adaptive-kernel-tie-transmits",
        path="src/repro/transmission/adaptive.py",
        old="transmit = (objective_send < objective_skip) | ~observed",
        new="transmit = (objective_send <= objective_skip) | ~observed",
        tests=(f"{KERNEL_TESTS}::test_adaptive_skips_on_tie_at_zero_queue",),
    ),
    # Misreadings of Sec. V-A that the queue bounds and the message
    # identity catch on every small trace, whatever an oracle says.
    Mutant(
        name="adaptive-drift-sign-flipped",
        path="src/repro/transmission/adaptive.py",
        old="    queues += transmit - budgets\n",
        new="    queues -= transmit - budgets\n",
        tests=(QUEUE_BOUNDS,),
    ),
    Mutant(
        name="adaptive-weight-exponent-one-plus-gamma",
        path="src/repro/transmission/adaptive.py",
        old="+ dtype.type(1.0)) ** gammas",
        new="+ dtype.type(1.0)) ** (1 + gammas)",
        tests=(QUEUE_BOUNDS,),
    ),
    Mutant(
        name="adaptive-first-send-free",
        path="src/repro/transmission/adaptive.py",
        old="    queues += transmit - budgets\n",
        new="    queues += (transmit & observed) - budgets\n",
        tests=(MESSAGE_IDENTITY,),
    ),
    Mutant(
        name="adaptive-queue-clamped-at-zero",
        path="src/repro/transmission/adaptive.py",
        old="    queues += transmit - budgets\n",
        new="    np.maximum(queues + transmit - budgets, 0, out=queues)\n",
        tests=(MESSAGE_IDENTITY,),
    ),
    Mutant(
        name="uniform-kernel-crossing-strict",
        path="src/repro/transmission/uniform.py",
        old="crossed = (accumulators >= 1.0) & observed",
        new="crossed = (accumulators > 1.0) & observed",
        tests=(
            f"{KERNEL_TESTS}::test_uniform_sends_exactly_every_fourth_slot",
        ),
    ),
    Mutant(
        name="deadband-kernel-boundary-transmits",
        path="src/repro/transmission/deadband.py",
        old="return (deviation > threshold) | ~observed",
        new="return (deviation >= threshold) | ~observed",
        tests=(
            f"{KERNEL_TESTS}::test_deadband_boundary_not_transmitted",
            f"{KERNEL_TESTS}::test_deadband_session_boundary_not_transmitted",
        ),
    ),
    # The one whole-trace loop every collection backend runs.
    Mutant(
        name="adaptive-backend-stores-every-slot",
        path="src/repro/simulation/collection.py",
        old=(
            "        stored_now = np.where(transmit[:, np.newaxis], data[t], "
            "stored_now)\n"
        ),
        new="        stored_now = data[t].copy()\n",
        tests=(
            "tests/test_equivalence.py::TestBatchedCollectionEquivalence::"
            "test_adaptive_backend_matches_oracle",
            f"{SESSION_PINS}::test_slot_kernel_loop_matches_session",
        ),
    ),
    Mutant(
        name="slot-loop-never-marks-observed",
        path="src/repro/simulation/collection.py",
        old="        observed |= transmit\n",
        new="",
        tests=(
            "tests/test_equivalence.py::TestBatchedCollectionEquivalence::"
            "test_adaptive_backend_matches_oracle",
            f"{SESSION_PINS}::test_slot_kernel_loop_matches_session",
        ),
    ),
    Mutant(
        name="collection-unseeded-rng",
        path="src/repro/simulation/collection.py",
        old="phases = np.random.default_rng(0).uniform(",
        new="phases = np.random.default_rng().uniform(",
        tests=(
            "tests/test_equivalence.py::TestBatchedCollectionEquivalence::"
            "test_uniform_backend_matches_oracle",
            "tests/test_lint.py::"
            "test_runtime_contracts_hold_for_all_components",
        ),
    ),
    # Configs written before ForecastingConfig.bank and
    # ClusteringConfig.window were removed load only with a value that
    # describes what runs today.
    Mutant(
        name="from-dict-drops-any-bank",
        path="src/repro/core/config.py",
        old='        if bank not in ("auto", runs):\n',
        new="        if False:\n",
        tests=(
            "tests/test_banks.py::TestResolution::"
            "test_object_bank_for_a_banked_model_rejected",
        ),
    ),
    Mutant(
        name="from-dict-drops-any-window",
        path="src/repro/core/config.py",
        old="        if window != 1:\n",
        new="        if False:\n",
        tests=(
            "tests/test_core_config.py::TestClusteringConfig::"
            "test_invalid_window",
        ),
    ),
    Mutant(
        name="registered-bank-overrides-factory",
        path="src/repro/forecasting/bank.py",
        old="    if factory is not None:\n",
        new=(
            "    if factory is not None and "
            "config.model not in FORECASTER_BANKS:\n"
        ),
        tests=(
            "tests/test_banks.py::TestResolution::"
            "test_custom_factory_forces_object_bank",
        ),
    ),
    # Checkpoints keep labels in their narrowest integer type and the
    # latest forecasts as the factors of Eq. 12.
    Mutant(
        name="label-dtype-always-uint8",
        path="src/repro/clustering/dynamic.py",
        old="self.label_dtype = np.min_scalar_type(num_clusters - 1)",
        new="self.label_dtype = np.dtype(np.uint8)",
        tests=(
            "tests/test_checkpoint.py::TestLabelDtype::"
            "test_label_state_has_the_narrowest_dtype",
        ),
    ),
    Mutant(
        name="snapshot-stores-cast-centroid-forecasts",
        path="src/repro/session.py",
        old='                "centroids": factors.centroids,\n',
        new=(
            '                "centroids": factors.centroids.astype(\n'
            "                    self.config.np_dtype\n"
            "                ),\n"
        ),
        tests=(
            "tests/test_checkpoint.py::TestFactoredForecasts::"
            "test_resumed_forecasts_match_the_live_session",
        ),
    ),
    Mutant(
        name="resumed-format2-session-snapshots-no-forecasts",
        path="src/repro/session.py",
        old=(
            "        if self._forecasts is not None:\n"
            "            horizons = sorted(self._forecasts)\n"
        ),
        new=(
            "        if False:\n"
            "            horizons = sorted(self._forecasts)\n"
        ),
        tests=(
            "tests/test_golden_checkpoints.py::"
            "test_composed_forecasts_resume_as_archived",
        ),
    ),
    # Engine.run scores each slot as it closes, and holds no
    # whole-trace estimate series.
    Mutant(
        name="intermediate-estimate-uncast",
        path="src/repro/api.py",
        old=(
            "                centers = assignment.centroids[assignment.labels]"
            ".astype(\n"
            "                    stored.dtype, copy=False\n"
            "                )\n"
        ),
        new=(
            "                centers = assignment.centroids"
            "[assignment.labels]\n"
        ),
        tests=(
            f"{SLOT_SCORER}[float32-scalar-1shard-all-sample_hold]",
            f"{SLOT_SCORER}[float32-joint-3shards-h1h3-ses]",
        ),
    ),
    Mutant(
        name="run-keeps-a-whole-trace-estimate-series",
        path="src/repro/api.py",
        old="        group_errors = np.empty((len(columns), num_steps))\n",
        new=(
            "        group_errors = np.empty((len(columns), num_steps))\n"
            "        centers_series = np.empty_like(stored)\n"
        ),
        tests=(
            "tests/test_api.py::TestRunMemory::"
            "test_peak_is_bounded_by_the_trace[1shard]",
        ),
    ),
    # The re-indexing assignment keeps the reference's first-minimum
    # tie-break.
    Mutant(
        name="assignment-tie-takes-last-minimum",
        path="src/repro/clustering/matching.py",
        old="                if minv[j] < delta:\n",
        new="                if minv[j] <= delta:\n",
        tests=(
            "tests/test_clustering_matching.py::TestReferenceIdentity::"
            "test_tied_integer_matrices",
        ),
    ),
    # One mutant per bug class the linter (tools/repro_lint) exists
    # for, each killed by the lint test over the shipped tree.  KER-001
    # has none: its one site, the uniform backend's seeded draw, carries
    # a waiver, so collection-unseeded-rng above is killed by a pin.
    Mutant(
        name="fleet-state-key-never-restored",  # STATE-002
        path="src/repro/simulation/fleet.py",
        old='        self.policy_state[...] = state["policy_state"]\n',
        new="",
        tests=(LINT_CLEAN,),
    ),
    Mutant(
        name="tracker-attribute-outside-checkpoint",  # STATE-003
        path="src/repro/clustering/dynamic.py",
        old="        labels = result.labels\n",
        new=(
            "        labels = result.labels\n"
            "        self._last_iterations = result.iterations\n"
        ),
        tests=(LINT_CLEAN,),
    ),
    # The collection backends also import every *_slot_kernel
    # function, so each SLOT_KERNELS registration has two routes; the
    # LSTM forecaster's has one.
    Mutant(
        name="forecaster-registration-unreachable",  # REG-002
        path="src/repro/forecasting/__init__.py",
        old=(
            "from repro.forecasting.lstm import LstmForecaster, "
            "StackedLSTMNetwork\n"
        ),
        new="",
        tests=(LINT_CLEAN,),
    ),
    Mutant(
        name="uniform-kernel-dtypeless-budgets",  # DT-001
        path="src/repro/transmission/uniform.py",
        old="budgets = np.asarray(budgets, dtype=accumulators.dtype)",
        new="budgets = np.asarray(budgets)",
        tests=(LINT_CLEAN,),
    ),
    Mutant(
        name="adaptive-kernel-float64-scalar",  # DT-002
        path="src/repro/transmission/adaptive.py",
        old="+ dtype.type(1.0)) ** gammas",
        new="+ np.float64(1.0)) ** gammas",
        tests=(LINT_CLEAN,),
    ),
)


def run_tests(workdir: Path, tests: Sequence[str]) -> int:
    """Run ``tests`` with pytest inside ``workdir``; return its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workdir / "src")
    # No bytecode: a mutant and the original text can share a size and
    # an mtime second, which would let a stale .pyc stand in for either.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x",
         "-p", "no:cacheprovider", *tests],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return completed.returncode


def copy_tree(workdir: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, workdir / name, ignore=ignore)
        else:
            shutil.copy2(source, workdir / name)


def run_mutant(workdir: Path, mutant: Mutant) -> str:
    target = workdir / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        return "stale"
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        code = run_tests(workdir, mutant.tests)
    finally:
        target.write_text(original)
    return "survived" if code == 0 else "killed"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as tmp:
        workdir = Path(tmp)
        copy_tree(workdir)
        named = sorted({test for m in LEDGER for test in m.tests})
        if run_tests(workdir, named) != 0:
            print("the named tests fail without any mutant; fix them "
                  "first", file=sys.stderr)
            return 1
        outcomes = {}
        for mutant in LEDGER:
            outcomes[mutant.name] = run_mutant(workdir, mutant)
            print(f"{outcomes[mutant.name]:<9} {mutant.name} "
                  f"({mutant.path})", flush=True)
    bad = [n for n, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
