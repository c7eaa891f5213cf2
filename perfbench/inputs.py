"""Seeded workload inputs, generated by the benchmark itself.

Every trace and churn plan here is a pure function of the benchmark's
``--seed`` argument and the workload size, so a later change to
``repro.datasets`` or ``repro.scenarios`` cannot change what a workload
feeds the program.  The generator follows the shape of the paper's
utilization traces: latent workload profiles (base level + diurnal
cycle + AR(1) drift), machines migrating between profiles, idle
machines, heavy-tailed bursts and per-machine noise, clipped to [0, 1].

A machine runs one workload profile at a time, shared by all its
resources, so the fleet forms as many groups as it has profiles plus
one of idle machines.  The profiles' base levels and diurnal phases
are fixed (each profile gets its own band and phase); the seed draws
the drift, the machines' memberships, offsets, bursts and noise.
Every seed is thus a new realization of the same fleet geometry, so
the clustering difficulty, and with it the cost of a slot, stays the
same from seed to seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class ResourceSpec:
    """One resource type's generator parameters.

    Attributes:
        base: Range the profile base levels are stratified over.
        diurnal: Amplitude of the daily cycle.
        ar: AR(1) coefficient of each profile's drift.
        ar_scale: Innovation std-dev of the drift.
        offset: Std-dev of each machine's persistent offset.
        noise: Std-dev of per-slot per-machine noise.
        idle_level: Mean utilization of idle machines.
        burst_rate: Per-slot probability a machine starts a burst.
        burst_height: Mean (exponential) burst height.
        burst_slots: Mean (geometric) burst length in slots.
    """

    base: Tuple[float, float]
    diurnal: float
    ar: float
    ar_scale: float
    offset: float
    noise: float
    idle_level: float = 0.03
    burst_rate: float = 0.0
    burst_height: float = 0.3
    burst_slots: float = 5.0


@dataclass(frozen=True)
class FleetSpec:
    """A fleet: machines share one workload profile across resources.

    Attributes:
        profiles: Number of latent workload profiles.
        period: Slots per day.
        migrate: Per-slot probability a machine moves to another profile.
        idle: Fraction of machines parked near each resource's
            ``idle_level``.
        resources: One spec per resource type.
    """

    profiles: int
    period: int
    migrate: float
    idle: float
    resources: Tuple[ResourceSpec, ...]


# Each fleet forms as many groups (profiles plus the idle machines) as
# its workload has clusters, so k-means converges in a similar number of
# iterations on every seed.

#: Alibaba-like (1-minute slots): cpu and memory; 3 groups.
ALIBABA = FleetSpec(
    profiles=2, period=1440, migrate=0.002, idle=0.15, resources=(
        ResourceSpec(base=(0.15, 0.85), diurnal=0.08, ar=0.97,
                     ar_scale=0.004, offset=0.03, noise=0.05),
        ResourceSpec(base=(0.3, 0.9), diurnal=0.04, ar=0.985,
                     ar_scale=0.003, offset=0.04, noise=0.03,
                     idle_level=0.1),
    ),
)

#: Google-like (5-minute slots): cpu and memory; 5 groups.
GOOGLE = FleetSpec(
    profiles=4, period=288, migrate=0.008, idle=0.2, resources=(
        ResourceSpec(base=(0.1, 0.8), diurnal=0.04, ar=0.92,
                     ar_scale=0.006, offset=0.03, noise=0.04),
        ResourceSpec(base=(0.2, 0.8), diurnal=0.03, ar=0.95,
                     ar_scale=0.004, offset=0.03, noise=0.03,
                     idle_level=0.06),
    ),
)

#: Bitbrains-like (5-minute slots): cpu only, bursty; 3 groups.
BITBRAINS = FleetSpec(
    profiles=2, period=288, migrate=0.003, idle=0.25, resources=(
        ResourceSpec(base=(0.1, 0.7), diurnal=0.05, ar=0.9,
                     ar_scale=0.006, offset=0.03, noise=0.04,
                     burst_rate=0.01, burst_height=0.3, burst_slots=6.0),
    ),
)


def fleet_trace(
    fleet: FleetSpec, num_steps: int, num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A fleet trace, shape ``(T, N, d)``, values in [0, 1]."""
    g = fleet.profiles
    # Membership: each migration event re-draws the machine's profile;
    # between events the last draw holds (forward fill along time).
    moves = rng.random((num_steps, num_nodes)) < fleet.migrate
    moves[0] = True
    draws = rng.integers(g, size=(num_steps, num_nodes))
    last_move = np.maximum.accumulate(
        np.where(moves, np.arange(num_steps)[:, np.newaxis], 0), axis=0
    )
    members = np.take_along_axis(draws, last_move, axis=0)
    idle = rng.random(num_nodes) < fleet.idle
    return np.stack([
        _resource(spec, fleet, members, idle, rng)
        for spec in fleet.resources
    ], axis=2)


def _resource(
    spec: ResourceSpec, fleet: FleetSpec, members: np.ndarray,
    idle: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """One resource of :func:`fleet_trace`, shape ``(T, N)``."""
    num_steps, num_nodes = members.shape
    g = fleet.profiles
    lo, hi = spec.base
    ranks = np.arange(g)
    bases = lo + (hi - lo) / g * (ranks + 0.5)
    phases = 2.0 * np.pi * ranks / g
    slots = np.arange(num_steps)[:, np.newaxis]
    profiles = bases + spec.diurnal * np.sin(
        2.0 * np.pi * slots / fleet.period + phases
    )
    innovations = rng.normal(0.0, spec.ar_scale, (num_steps, g))
    drift = np.zeros(g)
    for t in range(num_steps):
        drift = spec.ar * drift + innovations[t]
        profiles[t] += drift

    values = np.take_along_axis(profiles, members, axis=1)
    values += rng.normal(0.0, spec.offset, num_nodes)
    values += rng.normal(0.0, spec.noise, (num_steps, num_nodes))
    if spec.burst_rate > 0.0:
        values += _bursts(spec, num_steps, num_nodes, rng)
    count = int(idle.sum())
    values[:, idle] = spec.idle_level * (
        1.0 + rng.normal(0.0, 0.2, count)
    ) + rng.normal(0.0, 0.004, (num_steps, count))
    return np.clip(values, 0.0, 1.0)


def _bursts(
    spec: ResourceSpec, num_steps: int, num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive bursts: Bernoulli starts, geometric lengths,
    exponential heights."""
    bursts = np.zeros((num_steps, num_nodes))
    remaining = np.zeros(num_nodes, dtype=np.int64)
    height = np.zeros(num_nodes)
    starts = rng.random((num_steps, num_nodes)) < spec.burst_rate
    lengths = rng.geometric(1.0 / spec.burst_slots, (num_steps, num_nodes))
    heights = rng.exponential(spec.burst_height, (num_steps, num_nodes))
    for t in range(num_steps):
        start = starts[t] & (remaining == 0)
        remaining[start] = lengths[t, start]
        height[start] = heights[t, start]
        active = remaining > 0
        bursts[t, active] = height[active]
        remaining[active] -= 1
    return bursts


@dataclass(frozen=True)
class ChurnPlan:
    """Periodic fleet churn over a pool of machine columns.

    Machines are trace columns.  Every ``join_every`` slots ``count``
    idle machines of the pool join; every ``leave_every`` slots (offset
    by half a period) ``count`` members leave and return to the pool;
    every ``crash_every`` slots ``crash_count`` members crash and
    restart.  Victims and joiners are drawn from the plan's own
    generator, so the plan is a function of the seed alone.

    The default rates size the churn work of a long-lived session.  A
    join or leave remaps the session's whole label history, so its cost
    grows with the slot count; one of each per 400 slots keeps the remap
    and the churn calls near 5% of a slot over about 4,000 slots of a
    500-machine fleet (5.1% in a traced run on a 2-CPU x86-64 VM).
    Crashes come at the rate of ``repro``'s ``churny`` scenario (two
    per 200 slots); a crash-restart does not remap the history.
    """

    pool: int
    initial: int
    count: int = 8
    join_every: int = 400
    leave_every: int = 400
    crash_every: int = 100
    crash_count: int = 4


def churn_events(
    plan: ChurnPlan, num_steps: int, rng: np.random.Generator
) -> Dict[int, List[Tuple[str, np.ndarray]]]:
    """Per-slot churn events with concrete machine columns.

    Returns ``{slot: [(kind, columns), ...]}`` where ``kind`` is
    ``"join"``, ``"leave"`` or ``"crash"`` and ``columns`` are trace
    column ids (joiners for ``join``, victims otherwise).  The caller
    maps columns to session node positions.
    """
    members = list(range(plan.initial))
    idle = list(range(plan.initial, plan.pool))
    events: Dict[int, List[Tuple[str, np.ndarray]]] = {}
    half = plan.leave_every // 2
    for t in range(1, num_steps):
        slot_events = []
        if t % plan.join_every == 0 and idle:
            picks = rng.choice(len(idle), size=min(plan.count, len(idle)),
                               replace=False)
            joined = [idle[i] for i in sorted(picks.tolist())]
            idle = [c for c in idle if c not in set(joined)]
            members.extend(joined)
            slot_events.append(("join", np.asarray(joined, dtype=np.int64)))
        if t % plan.leave_every == half and len(members) > plan.count:
            picks = rng.choice(len(members), size=plan.count, replace=False)
            left = [members[i] for i in sorted(picks.tolist())]
            members = [c for c in members if c not in set(left)]
            idle.extend(left)
            slot_events.append(("leave", np.asarray(left, dtype=np.int64)))
        if t % plan.crash_every == 0:
            picks = rng.choice(len(members), size=plan.crash_count,
                               replace=False)
            crashed = [members[i] for i in sorted(picks.tolist())]
            slot_events.append(("crash", np.asarray(crashed, dtype=np.int64)))
        if slot_events:
            events[t] = slot_events
    return events


def digest(*parts: object) -> str:
    """Short SHA-256 over arrays and plain values, for result records."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
