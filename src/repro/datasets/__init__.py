"""Datasets: synthetic stand-ins for the paper's traces.

``load_alibaba_like``, ``load_bitbrains_like`` and ``load_google_like``
mirror the three computing-cluster traces of Sec. VI-A1;
``load_sensor_like`` mirrors the Intel-lab sensor data used by the
motivational experiment of Sec. III.  See DESIGN.md for the substitution
rationale.
"""

from repro.datasets.alibaba import load_alibaba_like
from repro.datasets.base import TraceDataset
from repro.datasets.bitbrains import load_bitbrains_like
from repro.datasets.google import load_google_like
from repro.datasets.sensor import load_sensor_like
from repro.datasets.synthetic import (
    ProfileTraceSpec,
    generate_bursts,
    generate_memberships,
    generate_profile_paths,
    generate_resource_trace,
)

__all__ = [
    "TraceDataset",
    "load_alibaba_like",
    "load_bitbrains_like",
    "load_google_like",
    "load_sensor_like",
    "ProfileTraceSpec",
    "generate_bursts",
    "generate_memberships",
    "generate_profile_paths",
    "generate_resource_trace",
]
