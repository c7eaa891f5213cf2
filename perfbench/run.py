"""Repository benchmark: one workload run, end-to-end or per-layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_scalar --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``serve_scalar``, ``batch_joint`` and ``longlived_churn``.

``--trace 0`` runs the workload untraced in a fresh process and prints
every end-to-end metric.  ``setup_s`` is the median over that process
and two set-up-only processes, one started before it and one after.
``--trace 1`` runs the workload twice, untraced and traced, each in a
fresh process, and prints every per-layer metric plus the tracing
overhead (untraced ÷ traced ``node_slots_per_s``) and the untraced
``slot_ms_p99``.

Every child runs with BLAS/OpenMP pinned to one thread, so the main
process plus ``batch_joint``'s two shard workers never exceed two
CPUs.  Work files (checkpoints, span traces) go to ``.perfbench/`` in
the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when an output check fails or the run cannot
complete.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Wall-clock limit for every child process of one run, in seconds.
TIME_LIMIT = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class RunFailed(Exception):
    """A child process failed or overran the time limit."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, workdir: Path, deadline: float, *, trace: int = 0,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    out = workdir / f"result_{os.getpid()}_{time.monotonic_ns()}.json"
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    command += [
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RunFailed(f"{args.workload} overran {TIME_LIMIT:.0f} s")
    finally:
        # Reap anything the worker left behind (e.g. pool processes).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not out.is_file():
        raise RunFailed(f"worker exited with code {code}")
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def report(result: dict) -> None:
    checks = result.get("checks", {})
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"input digest {result['digest']}, {result['attempted']} slots "
          f"attempted, {result['failed']} failed")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for error in result.get("errors", []):
        print(f"slot error:\n{error}", file=sys.stderr)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT

    try:
        if args.trace:
            base = spawn(args, workdir, deadline)
            traced = spawn(args, workdir, deadline, trace=1)
            runs = [base, traced]
            values = dict(traced["per_layer"])
            rates = [r["e2e"].get("node_slots_per_s") for r in runs]
            if all(rates):
                values["tracing.overhead"] = rates[0] / rates[1]
            if base["slot_ms"]:
                values["slot_ms_p99"] = float(
                    np.percentile(base["slot_ms"], 99)
                )
            wanted = spec["per_layer"]
        else:
            # One set-up probe before the measured run and one after, so
            # the median does not rest on one moment of the machine.
            setups = [spawn(args, workdir, deadline, setup_only=True)]
            main_run = spawn(args, workdir, deadline)
            setups += [main_run, spawn(args, workdir, deadline,
                                       setup_only=True)]
            runs = [main_run]
            setups = [result["setup_s"] for result in setups]
            values = dict(main_run["e2e"])
            values["setup_s"] = statistics.median(setups)
            wanted = spec["end_to_end"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stale in workdir.glob("*.ckpt"):
            stale.unlink()

    for result in runs:
        report(result)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            continue
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    # A run with no value for some metric (e.g. every slot raised) still
    # reports what it has, but does not pass.
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    if args.trace:
        print(f"spans written to {traced['span_file']}")
    correct = not missing and all(all(r["checks"].values()) for r in runs)
    attempted = runs[-1]["attempted"]
    failed = runs[-1]["failed"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
