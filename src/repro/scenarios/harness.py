"""The trace-replay harness: drive a scenario through a live session.

:func:`run_scenario` replays a real-trace tensor through a
:class:`~repro.session.StreamSession` under a scenario's link model
and churn schedule, one slot at a time:

1. apply this slot's churn events (grow / compact / crash-restart);
2. re-ingest the link's matured deliveries as late arrivals
   (``session.ingest(values, ids, t=origin_slot)`` — the documented
   reorder-window contract; nothing ever writes fleet columns
   directly);
3. score forecasts that matured this slot, by trace-column identity;
4. ingest the slot's fresh measurements for the current members;
5. record the per-slot delivery / loss / latency / churn counters.

At the end the harness *asserts* message conservation —
``sent == delivered_now + delivered_late + dropped_loss +
dropped_churn + in_flight`` — and returns a
:class:`~repro.scenarios.report.ScenarioReport`.

Checkpoint/resume: pass ``checkpoint_path`` (and optionally
``checkpoint_every``) to persist snapshots; pass the saved checkpoint
as ``resume_from`` to continue.  The membership track replays the
pre-checkpoint churn events (same seed, same draws), the link's queues
and generator travel inside the checkpoint, and the continuation is
bit-identical to a run that never stopped — including mid-churn
(property tests pin this).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api import Engine
from repro.checkpoint import Checkpoint, as_checkpoint
from repro.core.metrics import instantaneous_rmse, time_averaged_rmse
from repro.exceptions import ConfigurationError, SimulationError
from repro.registry import SCENARIOS
from repro.scenarios.churn import MembershipTrack
from repro.scenarios.links import build_link
from repro.scenarios.report import ScenarioReport
from repro.scenarios.spec import TRACE_SOURCES, ScenarioSpec

#: Link counters reported per slot as deltas.
_DELTA_KEYS = (
    "delivered_now", "delivered_late", "dropped_loss", "dropped_churn"
)


def resolve_scenario(spec: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """A validated :class:`ScenarioSpec` from a name or an instance."""
    if isinstance(spec, str):
        spec = SCENARIOS.create(spec)
    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            f"expected a ScenarioSpec or registered scenario name, got "
            f"{type(spec).__name__}"
        )
    spec.validate()
    return spec


def run_scenario(
    spec: Union[str, ScenarioSpec],
    *,
    until: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    resume_from: Optional[Union[Checkpoint, str, Path]] = None,
) -> ScenarioReport:
    """Replay one scenario end to end (or a slot range of it).

    Args:
        spec: A :class:`ScenarioSpec` or a name registered in
            :data:`repro.registry.SCENARIOS`.
        until: Stop after closing slot ``until - 1`` instead of running
            the full ``spec.num_steps`` (useful with
            ``checkpoint_path`` to stage a later resume).
        checkpoint_path: Where to save session snapshots; always saved
            once at the end of the run.
        checkpoint_every: Additionally snapshot every this many slots
            (overwriting ``checkpoint_path`` — it always holds the
            latest snapshot).
        resume_from: A checkpoint previously written by this harness
            for the *same spec*; the replay continues from its slot.

    Returns:
        The replay's :class:`~repro.scenarios.report.ScenarioReport`
        (covering only the slots this call executed).

    Raises:
        SimulationError: When link message accounting fails to conserve
            — every sent message must be delivered, dropped, or still
            in flight.
    """
    spec = resolve_scenario(spec)
    dataset = TRACE_SOURCES[spec.source](
        num_nodes=spec.total_nodes, num_steps=spec.num_steps
    )
    trace = dataset.resource(spec.resource)
    track = MembershipTrack(
        spec.total_nodes, spec.initial_nodes, seed=spec.seed
    )
    engine = Engine(spec.pipeline_config, policy=spec.policy)

    if resume_from is not None:
        checkpoint = as_checkpoint(resume_from)
        start = int(checkpoint.session["time"])
        if spec.churn is not None:
            # Same seed, same events, same draws: the track lands on
            # exactly the membership the checkpointed run had.
            track.replay(spec.churn.before(start))
        link = build_link(spec.link, int(checkpoint.session["num_nodes"]))
        session = engine.resume(checkpoint, link=link)
        if track.num_members != session.num_nodes:
            raise SimulationError(
                f"membership replay yields {track.num_members} nodes, "
                f"checkpoint holds {session.num_nodes}; resume_from must "
                "come from the same scenario spec"
            )
    else:
        start = 0
        link = build_link(spec.link, spec.initial_nodes)
        session = engine.session(
            spec.initial_nodes,
            1,
            reorder_window=spec.effective_reorder_window,
            link=link,
        )
    end = spec.num_steps if until is None else min(int(until), spec.num_steps)

    series: Dict[str, List] = {
        key: []
        for key in (
            "fleet_size", "messages", "rmse", "in_flight",
            "late_applied", "late_dropped", *_DELTA_KEYS,
        )
    }
    events_applied: List[Tuple[int, str, int]] = []
    # Forecasts awaiting their target slot: maturity slot -> list of
    # (horizon, predicted values, the trace columns the predictions
    # were made for).  Churn may renumber session nodes meanwhile;
    # scoring by column identity keeps the comparison honest.
    pending_scores: Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]] = {}
    horizon_errors: Dict[int, List[float]] = {}
    previous = link.counters()

    for t in range(start, end):
        if spec.churn is not None:
            for event in spec.churn.at(t):
                if event.kind == "join":
                    fresh = track.join(event.count)
                    if fresh.size:
                        session.grow(int(fresh.size))
                        events_applied.append((t, "join", int(fresh.size)))
                elif event.kind == "leave":
                    keep, removed = track.leave(event.count)
                    if removed.size:
                        session.compact(keep)
                        events_applied.append((t, "leave", int(removed.size)))
                else:
                    victims = track.crash(event.count)
                    if victims.size:
                        session.restart_nodes(victims)
                        events_applied.append((t, "crash", int(victims.size)))
        for origin, ids, values in link.due(t):
            session.ingest(values, ids, t=origin)
        for h, predicted, columns in pending_scores.pop(t, []):
            horizon_errors.setdefault(h, []).append(
                float(instantaneous_rmse(predicted, trace[t, columns]))
            )
        output = session.ingest(trace[t, track.members][:, np.newaxis])
        if output.node_forecasts:
            members = track.members.copy()
            for h, forecast in output.node_forecasts.items():
                pending_scores.setdefault(t + int(h), []).append(
                    (int(h), np.asarray(forecast)[:, 0].copy(), members)
                )
        totals = link.counters()
        series["fleet_size"].append(int(session.num_nodes))
        series["messages"].append(int(output.transport.messages))
        series["rmse"].append(
            float(
                instantaneous_rmse(
                    session.fleet.stored[:, 0], trace[t, track.members]
                )
            )
        )
        series["in_flight"].append(int(link.in_flight))
        series["late_applied"].append(int(session.late_applied))
        series["late_dropped"].append(int(session.late_dropped))
        for key in _DELTA_KEYS:
            series[key].append(int(totals[key] - previous[key]))
        previous = totals
        if (
            checkpoint_path is not None
            and checkpoint_every
            and (t + 1 - start) % int(checkpoint_every) == 0
        ):
            session.save(checkpoint_path)

    if checkpoint_path is not None:
        session.save(checkpoint_path)

    totals = link.counters()
    if not link.is_conserved:
        raise SimulationError(
            "link message accounting leaked: "
            f"sent={totals['sent']} != now={totals['delivered_now']} + "
            f"late={totals['delivered_late']} + "
            f"lost={totals['dropped_loss']} + "
            f"churned={totals['dropped_churn']} + "
            f"in_flight={link.in_flight}"
        )
    return ScenarioReport(
        name=spec.name,
        slots=end - start,
        final_nodes=int(session.num_nodes),
        per_slot={key: np.asarray(vals) for key, vals in series.items()},
        link_totals=totals,
        in_flight=int(link.in_flight),
        conserved=True,
        late_applied=int(session.late_applied),
        late_dropped=int(session.late_dropped),
        transport_messages=int(session.transport_stats.messages),
        transport_floats=int(session.transport_stats.payload_floats),
        empirical_frequency=float(session.empirical_frequency),
        rmse_by_horizon={
            h: time_averaged_rmse(errors)
            for h, errors in sorted(horizon_errors.items())
        },
        events=events_applied,
    )


__all__ = ["resolve_scenario", "run_scenario"]
