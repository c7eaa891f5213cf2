"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the experiment registry (one entry per table/figure)
  and the pluggable-component registries (forecasters, collection
  backends, transmission policies, similarity measures).
* ``run <experiment> [...]`` — run one or more experiments and print
  their formatted results, with ``--nodes/--steps`` scale overrides.
* ``run --config <json>`` — build an :class:`~repro.api.Engine` from a
  JSON config file and run it end to end on a synthetic trace.
* ``run --config <json> --stream`` — drive a long-lived
  :class:`~repro.session.StreamSession` slot by slot instead of the
  batch path, with ``--checkpoint <path>`` (and ``--checkpoint-every
  N``) writing durable snapshots and ``--resume <path>`` continuing
  bit-identically from one.
* ``run --scenario <name>`` — replay a registered scenario (link model
  × churn schedule × trace source, see :mod:`repro.scenarios`) through
  a streaming session; supports the same ``--checkpoint`` /
  ``--checkpoint-every`` / ``--resume`` flags plus ``--steps``.
* ``demo`` — run the quickstart pipeline on a synthetic trace.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api import Engine
from repro.checkpoint import CHECKPOINT_FORMAT_VERSION, as_checkpoint
from repro.core.config import SUPPORTED_DTYPES, PipelineConfig
from repro.datasets import load_alibaba_like
from repro.exceptions import CheckpointError, ReproError
from repro.experiments import EXPERIMENTS
from repro.registry import (
    COLLECTION_BACKENDS,
    FORECASTERS,
    FORECASTER_BANKS,
    SCENARIOS,
    SIMILARITY_MEASURES,
    SLOT_KERNELS,
)

#: Parameter names accepted by every experiment runner for scaling.
_SCALE_KEYS = ("num_nodes", "num_steps")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Online Collection and Forecasting of "
            "Resource Utilization in Large-Scale Distributed Systems' "
            "(Tuor et al., ICDCS 2019)."
        ),
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser(
        "list", help="list experiments and registered components"
    )

    run_parser = commands.add_parser(
        "run", help="run experiments, or an engine from a config file"
    )
    run_parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids (from: {', '.join(sorted(EXPERIMENTS))})",
    )
    run_parser.add_argument(
        "--config", default=None, metavar="JSON",
        help="run the unified engine from a JSON config file "
             "(PipelineConfig.to_dict form) instead of experiments",
    )
    run_parser.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the fleet into K contiguous node shards for the "
             "collection stage of --config runs (results are "
             "bit-identical to a single shard)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="run the shards on W threads, the calling one included "
             "(default: the calling thread alone)",
    )
    run_parser.add_argument(
        "--dtype", choices=SUPPORTED_DTYPES, default=None,
        help="override the config's fleet dtype (float64 keeps the "
             "bit-identity pins; float32 halves column memory for "
             "million-node fleets)",
    )
    run_parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the number of simulated machines",
    )
    run_parser.add_argument(
        "--steps", type=int, default=None,
        help="override the number of time slots",
    )
    run_parser.add_argument(
        "--stream", action="store_true",
        help="drive a streaming session slot by slot instead of the "
             "batch path (--config runs only)",
    )
    run_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="replay a registered scenario (link model x churn x trace "
             "source) through a streaming session "
             f"(one of: {', '.join(SCENARIOS.available())})",
    )
    run_parser.add_argument(
        "--policy", default=None,
        help="transmission policy of --config and --stream runs "
             f"(one of: {', '.join(SLOT_KERNELS.available())}; "
             "default adaptive, or the checkpoint's with --resume)",
    )
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a checkpoint of the streaming session to PATH "
             "(at the end of the run, plus every --checkpoint-every "
             "slots)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="also checkpoint every N slots (requires --checkpoint)",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume the streaming session from a checkpoint and "
             "continue on the synthetic trace (config/policy are taken "
             "from the checkpoint when --config is omitted)",
    )

    demo_parser = commands.add_parser(
        "demo", help="run the quickstart pipeline"
    )
    demo_parser.add_argument("--nodes", type=int, default=60)
    demo_parser.add_argument("--steps", type=int, default=500)
    demo_parser.add_argument("--budget", type=float, default=0.3)
    demo_parser.add_argument("--clusters", type=int, default=3)
    return parser


def _command_list() -> int:
    print("experiments (paper artifact -> runner):")
    for name in EXPERIMENTS:
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:<22} {summary}")
    print("\ncomponents (registry -> names):")
    for label, registry in (
        ("forecasters", FORECASTERS),
        ("forecaster banks", FORECASTER_BANKS),
        ("collection backends", COLLECTION_BACKENDS),
        ("slot kernels", SLOT_KERNELS),
        ("similarity measures", SIMILARITY_MEASURES),
        ("scenarios", SCENARIOS),
    ):
        print(f"  {label:<22} {', '.join(registry.available())}")
    default_dtype = PipelineConfig().dtype
    print(
        f"  {'fleet dtypes':<22} "
        + ", ".join(
            f"{name} (default)" if name == default_dtype else name
            for name in SUPPORTED_DTYPES
        )
    )
    print(f"\ncheckpoint format: v{CHECKPOINT_FORMAT_VERSION}")
    return 0


def _with_dtype(engine: Engine, args: argparse.Namespace, **kwargs) -> Engine:
    """Rebuild ``engine`` with ``--dtype`` applied (no-op otherwise)."""
    if args.dtype is None or args.dtype == engine.config.dtype:
        return engine
    overridden = dict(engine.config.to_dict())
    overridden["dtype"] = args.dtype
    return Engine.from_config(overridden, **kwargs)


def _command_run_config(args: argparse.Namespace) -> int:
    num_nodes = args.nodes if args.nodes is not None else 24
    num_steps = args.steps if args.steps is not None else 240
    try:
        policy = args.policy or "adaptive"
        engine = Engine.from_config(args.config, policy=policy)
        engine = _with_dtype(engine, args, policy=policy)
    except OSError as exc:
        print(f"cannot read --config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError, ReproError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    dataset = load_alibaba_like(num_nodes=num_nodes, num_steps=num_steps)
    try:
        result = engine.run(
            dataset.resource("cpu"),
            shards=args.shards,
            workers=args.workers,
        )
    except ReproError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    shard_part = (
        f", {args.shards} shards" if args.shards != 1 else ""
    )
    print(
        f"engine run: config={args.config} "
        f"({num_nodes} nodes, {num_steps} steps{shard_part}, "
        f"dtype={engine.config.dtype})"
    )
    print(result.summary())
    return 0


def _command_run_stream(args: argparse.Namespace) -> int:
    """Drive a streaming session over the synthetic trace.

    With ``--resume`` the session continues from the checkpoint's slot
    on the same deterministic synthetic trace, so an interrupted run
    plus its resumption is bit-identical to an uninterrupted one.
    """
    num_nodes = args.nodes if args.nodes is not None else 24
    num_steps = args.steps if args.steps is not None else 240
    if args.checkpoint_every is not None and args.checkpoint is None:
        print("--checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    try:
        if args.resume is not None:
            # mmap=True: array members are mapped copy-on-write and
            # adopted as the session's live columns (zero-copy resume).
            checkpoint = as_checkpoint(args.resume, mmap=True)
            meta = checkpoint.session
            print(
                f"resuming {args.resume}: format "
                f"v{checkpoint.version}, written by repro "
                f"{checkpoint.library_version}, "
                f"dtype={checkpoint.config.get('dtype', 'float64')}, "
                f"N={meta.get('num_nodes')}, d={meta.get('num_resources')}, "
                f"slot={meta.get('time')}, policy={meta.get('policy')}"
            )
            if args.config is not None:
                engine = Engine.from_config(
                    args.config, policy=args.policy or "adaptive"
                )
            else:
                engine = Engine.from_config(
                    checkpoint.config, policy=args.policy or meta["policy"]
                )
            session = engine.resume(checkpoint)
            if args.nodes is not None and args.nodes != session.num_nodes:
                print(
                    f"--nodes {args.nodes} contradicts the checkpoint's "
                    f"{session.num_nodes}-node session; a resumed session "
                    "keeps its fleet size",
                    file=sys.stderr,
                )
                return 2
            num_nodes = session.num_nodes
        else:
            policy = args.policy or "adaptive"
            engine = Engine.from_config(args.config, policy=policy)
            engine = _with_dtype(engine, args, policy=policy)
            session = engine.session(num_nodes, 1)
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"CheckpointError: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError, ReproError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    trace = load_alibaba_like(
        num_nodes=num_nodes, num_steps=num_steps
    ).resource("cpu")
    start = session.time
    if start >= num_steps:
        print(
            f"checkpoint is already at slot {start}; raise --steps "
            f"beyond {num_steps} to continue", file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    for t in range(start, num_steps):
        session.ingest(trace[t])
        if (
            args.checkpoint is not None
            and args.checkpoint_every is not None
            and session.time % args.checkpoint_every == 0
        ):
            session.save(args.checkpoint)
    elapsed = time.perf_counter() - started
    if args.checkpoint is not None:
        path = session.save(args.checkpoint)
        print(f"checkpoint written: {path} (format v"
              f"{CHECKPOINT_FORMAT_VERSION})")
    slots = num_steps - start
    print(
        f"stream session: {num_nodes} nodes, slots {start}..{num_steps - 1}"
    )
    stats = session.transport_stats
    print(
        f"transmission frequency: {session.empirical_frequency:.3f} "
        f"({stats.messages} messages, "
        f"{stats.payload_bytes(session.fleet.dtype.itemsize)} payload bytes)"
    )
    if session.late_applied or session.late_dropped:
        print(
            f"late arrivals: {session.late_applied} applied, "
            f"{session.late_dropped} dropped"
        )
    try:
        forecasts = session.forecast()
        horizons = ", ".join(str(h) for h in sorted(forecasts))
        print(f"forecasts available for horizons: {horizons}")
    except ReproError:
        print("forecasts: not yet (still in the initial collection phase)")
    print(f"[{elapsed:.1f}s, {slots / max(elapsed, 1e-9):.0f} slots/s]")
    return 0


def _command_run_scenario(args: argparse.Namespace) -> int:
    """Replay a registered scenario through a streaming session."""
    from repro.scenarios import run_scenario
    from repro.scenarios.harness import resolve_scenario

    if args.nodes is not None or args.policy is not None:
        print(
            "--nodes and --policy do not apply to --scenario runs (fleet "
            "size and policy are part of the scenario spec)",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_every is not None and args.checkpoint is None:
        print("--checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    try:
        spec = resolve_scenario(args.scenario)
        if args.steps is not None:
            spec = spec.with_steps(args.steps)
        started = time.perf_counter()
        report = run_scenario(
            spec,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
        )
    except OSError as exc:
        print(f"cannot read checkpoint: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(report.summary())
    if args.checkpoint is not None:
        print(f"checkpoint written: {args.checkpoint} "
              f"(format v{CHECKPOINT_FORMAT_VERSION})")
    print(f"[{elapsed:.1f}s, {report.slots / max(elapsed, 1e-9):.0f} "
          "slots/s]")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        if args.experiments or args.config is not None or args.stream:
            print(
                "--scenario runs standalone (no experiment ids, "
                "--config or --stream)", file=sys.stderr,
            )
            return 2
        return _command_run_scenario(args)
    if args.stream or args.resume is not None:
        if args.experiments:
            print(
                "--stream and experiment ids are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        if args.config is None and args.resume is None:
            print("--stream needs --config or --resume", file=sys.stderr)
            return 2
        return _command_run_stream(args)
    if args.checkpoint is not None or args.checkpoint_every is not None:
        print("--checkpoint only applies to --stream runs", file=sys.stderr)
        return 2
    if args.config is not None:
        if args.experiments:
            print(
                "--config and experiment ids are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        return _command_run_config(args)
    if args.policy is not None:
        print("--policy only applies to --config/--stream runs; "
              "experiments choose their own policies", file=sys.stderr)
        return 2
    if args.shards != 1 or args.workers is not None:
        print("--shards/--workers only apply to --config runs",
              file=sys.stderr)
        return 2
    if args.dtype is not None:
        print("--dtype only applies to --config/--stream runs; "
              "experiments pin their own precision", file=sys.stderr)
        return 2
    if not args.experiments:
        print("nothing to run: pass experiment ids or --config",
              file=sys.stderr)
        return 2
    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    for name in args.experiments:
        runner = EXPERIMENTS[name]
        kwargs = {}
        if args.nodes is not None:
            kwargs["num_nodes"] = args.nodes
        if args.steps is not None:
            kwargs["num_steps"] = args.steps
        # Drop overrides the runner does not accept (e.g. fig12 uses
        # train_steps/test_steps instead of num_steps).
        accepted = runner.__code__.co_varnames[: runner.__code__.co_argcount]
        all_names = set(accepted) | set(
            runner.__code__.co_varnames[
                : runner.__code__.co_argcount + runner.__code__.co_kwonlyargcount
            ]
        )
        kwargs = {k: v for k, v in kwargs.items() if k in all_names}
        print(f"== {name} {kwargs or ''}")
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        print(result.format())
        print(f"[{elapsed:.1f}s]\n")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    dataset = load_alibaba_like(num_nodes=args.nodes, num_steps=args.steps)
    config = PipelineConfig.small(
        num_clusters=args.clusters,
        budget=args.budget,
        initial_collection=max(50, args.steps // 4),
        retrain_interval=max(50, args.steps // 4),
    )
    result = Engine(config).run(dataset.resource("cpu"))
    print(f"dataset: {dataset.name} ({args.nodes} nodes, {args.steps} steps)")
    print(result.summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "demo":
        return _command_demo(args)
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
