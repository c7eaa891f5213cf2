"""Time-slotted simulation substrate: columnar fleet, transport, collection."""

from repro.simulation.collection import (
    CollectionResult,
    collect,
    run_slot_kernel,
)
from repro.simulation.fleet import FleetState, merge_collection_shards, shard_slices
from repro.simulation.transport import Channel, PerNodeMessages, TransportStats

__all__ = [
    "CollectionResult",
    "collect",
    "run_slot_kernel",
    "FleetState",
    "Channel",
    "PerNodeMessages",
    "TransportStats",
    "merge_collection_shards",
    "shard_slices",
]
