"""Fleet churn schedules and the trace-column membership track.

A scenario replays a fixed real-trace tensor ``(T, total_nodes)``
through a fleet whose membership changes over time.  Two pieces keep
that honest:

* :class:`ChurnSchedule` — the declarative *when*: join/leave/crash
  events pinned to slots;
* :class:`MembershipTrack` — the replayable *who*: the mapping from
  live session node indices to trace columns.  Joins consume fresh,
  never-used trace columns; leaves and crashes pick victims from one
  seeded generator.  Because every decision is a pure function of
  ``(seed, event sequence)``, a resumed run replays the pre-checkpoint
  events through a fresh track and lands on exactly the membership —
  and generator state — the original run had, which is what makes
  mid-churn checkpoint/resume bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Recognized churn event kinds.
EVENT_KINDS = ("join", "leave", "crash")


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, applied *before* its slot is ingested.

    Args:
        slot: The slot the event precedes.
        kind: ``"join"`` (new nodes), ``"leave"`` (permanent
            departure) or ``"crash"`` (crash-restart: the node loses
            local state but keeps its identity).
        count: How many nodes the event touches (clamped by the track:
            joins by remaining fresh columns, leaves so the fleet
            keeps at least one node).
    """

    slot: int
    kind: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ConfigurationError(f"slot must be >= 0, got {self.slot}")
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if self.count < 1:
            raise ConfigurationError(
                f"count must be >= 1, got {self.count}"
            )


class ChurnSchedule:
    """An immutable slot-sorted sequence of :class:`ChurnEvent`."""

    def __init__(self, events: Iterable[ChurnEvent]) -> None:
        ordered = sorted(events, key=lambda event: event.slot)
        self.events: Tuple[ChurnEvent, ...] = tuple(ordered)

    def at(self, slot: int) -> Tuple[ChurnEvent, ...]:
        """Events scheduled for ``slot``, in schedule order."""
        return tuple(e for e in self.events if e.slot == int(slot))

    def before(self, slot: int) -> Tuple[ChurnEvent, ...]:
        """Events strictly before ``slot`` (the resume replay set)."""
        return tuple(e for e in self.events if e.slot < int(slot))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class MembershipTrack:
    """Replayable mapping of live session nodes to trace columns.

    Session node ``i`` reads trace column ``members[i]``.  Joins
    consume the lowest never-used columns (deterministic, no
    randomness); leave/crash victims come from the private seeded
    generator, so the whole membership history is a pure function of
    the seed and the event sequence.

    Args:
        total_columns: Columns available in the trace tensor.
        initial_members: Fleet size at slot 0 (columns
            ``0..initial_members-1``).
        seed: Seed of the victim-selection generator.
    """

    def __init__(
        self, total_columns: int, initial_members: int, *, seed: int = 0
    ) -> None:
        if initial_members < 1:
            raise ConfigurationError(
                f"initial_members must be >= 1, got {initial_members}"
            )
        if initial_members > total_columns:
            raise ConfigurationError(
                f"initial_members {initial_members} exceeds the trace's "
                f"{total_columns} columns"
            )
        self.total_columns = int(total_columns)
        self.members = np.arange(initial_members, dtype=np.int64)
        self._next_column = int(initial_members)
        # repro: noqa KER-001(seeded generator; churn is a pure function of spec)
        self._rng = np.random.default_rng(seed)

    @property
    def num_members(self) -> int:
        return int(self.members.size)

    @property
    def columns_remaining(self) -> int:
        """Fresh trace columns still available for joins."""
        return self.total_columns - self._next_column

    def join(self, count: int) -> np.ndarray:
        """Admit up to ``count`` nodes on fresh trace columns.

        Returns the consumed column ids (may be fewer than ``count``
        when the trace runs out of columns — possibly empty).
        """
        take = min(int(count), self.columns_remaining)
        if take <= 0:
            return np.empty(0, dtype=np.int64)
        fresh = np.arange(
            self._next_column, self._next_column + take, dtype=np.int64
        )
        self._next_column += take
        self.members = np.concatenate([self.members, fresh])
        return fresh

    def leave(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Remove up to ``count`` random members (keeping at least 1).

        Returns:
            ``(keep, removed)`` — the surviving session node indices
            (strictly increasing: the :meth:`StreamSession.compact
            <repro.session.StreamSession.compact>` argument) and the
            departed indices.  ``removed`` may be empty.
        """
        n = self.num_members
        take = min(int(count), n - 1)
        if take <= 0:
            return np.arange(n, dtype=np.int64), np.empty(0, dtype=np.int64)
        removed = np.sort(
            self._rng.choice(n, size=take, replace=False)
        ).astype(np.int64)
        keep = np.setdiff1d(
            np.arange(n, dtype=np.int64), removed, assume_unique=True
        )
        self.members = self.members[keep]
        return keep, removed

    def crash(self, count: int) -> np.ndarray:
        """Pick up to ``count`` random members to crash-restart.

        Membership is unchanged (the node keeps its identity and trace
        column); only the victim indices are returned.
        """
        n = self.num_members
        take = min(int(count), n)
        if take <= 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(
            self._rng.choice(n, size=take, replace=False)
        ).astype(np.int64)

    def replay(self, events: Sequence[ChurnEvent]) -> None:
        """Re-apply past events (resume support, no session effects).

        Consumes exactly the generator draws and column allocations the
        original run did, so a track replayed to a checkpoint's slot is
        indistinguishable from the one that produced it.
        """
        for event in events:
            if event.kind == "join":
                self.join(event.count)
            elif event.kind == "leave":
                self.leave(event.count)
            else:
                self.crash(event.count)


__all__ = ["EVENT_KINDS", "ChurnEvent", "ChurnSchedule", "MembershipTrack"]
