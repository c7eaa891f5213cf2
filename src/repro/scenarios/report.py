"""Scenario run results: delivery, churn and accuracy accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class ScenarioReport:
    """Everything a finished scenario replay observed.

    Attributes:
        name: The scenario's name.
        slots: Slots this report covers (a resumed run reports only
            the slots it replayed itself).
        final_nodes: Fleet size after the last slot.
        per_slot: Per-slot series, each an array of length ``slots``:
            ``fleet_size``, ``messages`` (delivered this slot),
            ``rmse`` (collection error of the stored matrix vs the
            live members' truth), and the link counter *deltas*
            (``delivered_now``, ``delivered_late``, ``dropped_loss``,
            ``dropped_churn``, ``in_flight``) plus the session's
            cumulative ``late_applied`` / ``late_dropped``.
        link_totals: Final cumulative link counters.
        in_flight: Messages still inside the link at the end.
        conserved: Whether ``sent == delivered_now + delivered_late +
            dropped_loss + dropped_churn + in_flight`` held at the end.
        late_applied: Session-cumulative applied late arrivals.
        late_dropped: Session-cumulative dropped late arrivals.
        transport_messages: Cumulative messages the channel counted.
        transport_floats: Cumulative payload floats.
        empirical_frequency: Fleet-average transmission frequency.
        rmse_by_horizon: Time-averaged forecast RMSE per horizon
            (Eq. 4: the root of the mean *squared* per-slot RMSE, as
            in :attr:`repro.api.RunResult.rmse_by_horizon`), scored by
            trace-column identity (a forecast made for node ``i`` is
            compared against the trace column node ``i`` was bound to
            when the forecast was made, even if churn later renumbered
            or removed it).
        events: Applied churn events as ``(slot, kind, count)`` with
            the *effective* count (after clamping).
    """

    name: str
    slots: int
    final_nodes: int
    per_slot: Dict[str, np.ndarray] = field(default_factory=dict)
    link_totals: Dict[str, int] = field(default_factory=dict)
    in_flight: int = 0
    conserved: bool = True
    late_applied: int = 0
    late_dropped: int = 0
    transport_messages: int = 0
    transport_floats: int = 0
    empirical_frequency: float = 0.0
    rmse_by_horizon: Dict[int, float] = field(default_factory=dict)
    events: List[Tuple[int, str, int]] = field(default_factory=list)

    def summary(self) -> str:
        """A compact human-readable digest (CLI output)."""
        totals = self.link_totals
        lines = [
            f"scenario {self.name}: {self.slots} slots, "
            f"{self.final_nodes} nodes at end",
            (
                "link: sent={sent} now={delivered_now} "
                "late={delivered_late} lost={dropped_loss} "
                "churned={dropped_churn}".format(**totals)
                + f" in_flight={self.in_flight}"
                + (" [conserved]" if self.conserved else " [LEAK]")
            ),
            (
                f"session: late_applied={self.late_applied} "
                f"late_dropped={self.late_dropped} "
                f"messages={self.transport_messages} "
                f"frequency={self.empirical_frequency:.3f}"
            ),
        ]
        rmse = self.per_slot.get("rmse")
        if rmse is not None and rmse.size:
            lines.append(f"collection rmse (mean): {float(rmse.mean()):.4f}")
        for h in sorted(self.rmse_by_horizon):
            lines.append(
                f"forecast rmse h={h}: {self.rmse_by_horizon[h]:.4f}"
            )
        if self.events:
            digest = ", ".join(
                f"t={slot} {kind}x{count}"
                for slot, kind, count in self.events
            )
            lines.append(f"churn: {digest}")
        return "\n".join(lines)


__all__ = ["ScenarioReport"]
