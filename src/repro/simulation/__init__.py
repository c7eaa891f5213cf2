"""Time-slotted simulation substrate: columnar fleet, transport, store."""

from repro.simulation.collection import (
    CollectionResult,
    CollectionSimulation,
    collect,
    simulate_adaptive_collection,
    simulate_uniform_collection,
)
from repro.simulation.controller import CentralStore
from repro.simulation.fleet import FleetState, merge_collection_shards, shard_slices
from repro.simulation.node import LocalNode
from repro.simulation.transport import Channel, PerNodeMessages, TransportStats

__all__ = [
    "CollectionResult",
    "CollectionSimulation",
    "collect",
    "simulate_adaptive_collection",
    "simulate_uniform_collection",
    "CentralStore",
    "FleetState",
    "LocalNode",
    "Channel",
    "PerNodeMessages",
    "TransportStats",
    "merge_collection_shards",
    "shard_slices",
]
