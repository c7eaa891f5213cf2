"""Scenario specifications: link model × churn schedule × trace source.

A :class:`ScenarioSpec` is a cheap, validated value object describing
one complete replay: which trace loader feeds the fleet, how big the
fleet starts and may grow, which transmission policy runs, what the
link between nodes and controller looks like, and when membership
changes.  Builders registered in :data:`repro.registry.SCENARIOS`
return these; :func:`repro.scenarios.harness.run_scenario` executes
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.core.config import PipelineConfig
from repro.datasets import (
    TraceDataset,
    load_alibaba_like,
    load_bitbrains_like,
    load_google_like,
    load_sensor_like,
)
from repro.exceptions import ConfigurationError
from repro.scenarios.churn import ChurnSchedule
from repro.scenarios.links import LinkConfig

#: Trace source name → loader ``(num_nodes=…, num_steps=…) -> TraceDataset``.
TRACE_SOURCES: Dict[str, Callable[..., TraceDataset]] = {
    "alibaba": load_alibaba_like,
    "google": load_google_like,
    "bitbrains": load_bitbrains_like,
    "sensor": load_sensor_like,
}


def _default_config() -> PipelineConfig:
    # Scenario replays are short (a few hundred slots), so collection
    # and retraining are tightened relative to PipelineConfig.small().
    return PipelineConfig.small(
        initial_collection=40, retrain_interval=60, max_horizon=3
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible scenario description.

    Args:
        name: Scenario name (also the registry key for built-ins).
        source: Trace loader, a :data:`TRACE_SOURCES` key.
        resource: Resource plane of the trace to replay (e.g. ``"cpu"``;
            the sensor trace exposes ``"temperature"``/``"humidity"``).
        num_steps: Slots to replay (also the generated trace length).
        total_nodes: Trace columns generated — the ceiling the fleet
            can grow to via joins.
        initial_nodes: Fleet size at slot 0.
        policy: Transmission-policy name.
        seed: Seed of the membership track's victim selection.
        link: Link-model parameters (default: ideal).
        churn: Membership schedule (None: static fleet).
        reorder_window: Session late-arrival tolerance; None derives
            ``link.latency + 8`` (delayed deliveries must fit).
        config: Pipeline configuration; None uses a tightened
            :meth:`PipelineConfig.small
            <repro.core.config.PipelineConfig.small>`.
    """

    name: str
    source: str = "alibaba"
    resource: str = "cpu"
    num_steps: int = 240
    total_nodes: int = 32
    initial_nodes: int = 24
    policy: str = "adaptive"
    seed: int = 0
    link: LinkConfig = field(default_factory=LinkConfig)
    churn: Optional[ChurnSchedule] = None
    reorder_window: Optional[int] = None
    config: Optional[PipelineConfig] = None

    def validate(self) -> None:
        if self.source not in TRACE_SOURCES:
            raise ConfigurationError(
                f"unknown trace source {self.source!r}; available: "
                f"{', '.join(sorted(TRACE_SOURCES))}"
            )
        if self.num_steps < 1:
            raise ConfigurationError(
                f"num_steps must be >= 1, got {self.num_steps}"
            )
        if self.initial_nodes < 1:
            raise ConfigurationError(
                f"initial_nodes must be >= 1, got {self.initial_nodes}"
            )
        if self.initial_nodes > self.total_nodes:
            raise ConfigurationError(
                f"initial_nodes {self.initial_nodes} exceeds total_nodes "
                f"{self.total_nodes}"
            )
        if self.reorder_window is not None and self.reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {self.reorder_window}"
            )
        if self.churn is not None:
            for event in self.churn:
                if event.slot >= self.num_steps:
                    raise ConfigurationError(
                        f"churn event at slot {event.slot} beyond the "
                        f"scenario's {self.num_steps} slots"
                    )

    @property
    def effective_reorder_window(self) -> int:
        """The session's late-arrival tolerance for this scenario.

        Delayed deliveries arrive at least one slot late and contention
        can hold a message back several more, so the derived default
        leaves the link's latency plus slack.
        """
        if self.reorder_window is not None:
            return self.reorder_window
        return int(self.link.latency) + 8

    @property
    def pipeline_config(self) -> PipelineConfig:
        """The resolved pipeline configuration."""
        return self.config if self.config is not None else _default_config()

    def with_steps(self, num_steps: int) -> "ScenarioSpec":
        """A copy replaying ``num_steps`` slots (CLI ``--steps``).

        Churn events beyond the new horizon are dropped so the copy
        still validates.
        """
        churn = self.churn
        if churn is not None:
            churn = ChurnSchedule(
                event for event in churn if event.slot < int(num_steps)
            )
            if not len(churn):
                churn = None
        return replace(self, num_steps=int(num_steps), churn=churn)


__all__ = ["TRACE_SOURCES", "ScenarioSpec"]
