"""One workload run in a fresh process.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker``.  The
set-up clock starts at the launcher's spawn time (``--spawned-at``, a
``CLOCK_MONOTONIC`` reading), before ``import repro``, and stops when
the workload's engine or session is ready for its first input.  The
result is written as JSON to ``--out``.

With ``--setup-only`` the worker stops after set-up: the launcher
starts a few of these to report a median set-up time.
"""

import time

IMPORT_STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: Per-layer counts a workload reports only when its layer ran.
COUNT_METRICS = (
    "session.late_applied_ratio",
    "links.delivered_ratio",
    "links.in_flight_max",
    "checkpoint.state_bytes",
    "checkpoint.label_history_bytes",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=IMPORT_STARTED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from perfbench.workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, workdir, tracer
    )
    workload.setup()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s}
    if not args.setup_only:
        try:
            outcome = workload.run()
        except Exception:
            # Report what the run measured before it raised.
            outcome = workload.out
            outcome.errors.insert(0, traceback.format_exc())
            outcome.checks["run_completed"] = False
        # A figure with nothing to average over is left out, not NaN.
        e2e = {k: v for k, v in outcome.e2e.items() if math.isfinite(v)}
        e2e["peak_rss_mb"] = peak_rss_mb()
        e2e["ok_slot_ratio"] = (
            1.0 - outcome.failed / outcome.attempted
            if outcome.attempted else 0.0
        )
        result.update(
            e2e=e2e,
            slot_ms=outcome.slot_ms,
            attempted=outcome.attempted,
            failed=outcome.failed,
            checks=outcome.checks,
            digest=outcome.digest,
            errors=outcome.errors[:3],
        )
        if tracer is not None:
            per_layer = dict.fromkeys(COUNT_METRICS, 0.0)
            per_layer.update(tracer.summary(outcome.measured_slots))
            per_layer["forecasting.fallback_clusters"] = (
                workload.fallbacks.clusters
            )
            per_layer.update(outcome.per_layer)
            result["per_layer"] = per_layer
            trace_path = workdir / f"spans_{args.workload}_{args.seed}.jsonl"
            tracer.write(trace_path)
            result["span_file"] = str(trace_path)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
