"""In-process shard runner for sharded collection.

In the paper every node makes its own transmission decision, so the
contiguous node ranges of ``Engine.run(trace, shards=K, workers=W)``
share no state.  :class:`ShardPool` — the runner behind that call —
runs the registered collection backend over those ranges on the calling
thread plus up to ``W - 1`` helper threads.  numpy releases the GIL
inside the whole-fleet element-wise ops every backend is built from, so
the threads overlap without copying the trace or the results anywhere.

The arithmetic is exactly the single-shard run's: every backend runs on
a contiguous node slice of the same trace with the same shard-aware
kwargs, and :func:`~repro.simulation.fleet.merge_collection_shards`
joins the results in range order, so sharded results are bit-identical
to ``shards=1`` — values *and* dtypes — for every registered backend,
both float dtypes and any ``workers``.

The calling thread is always one of the ``workers``.  Every helper
thread gets its own glibc malloc arena, and an arena keeps the shard
temporaries it freed; a helper per worker therefore costs a whole
extra arena of peak RSS, while the caller's work lands in the arena the
process already holds.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransmissionConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.registry import COLLECTION_BACKENDS
from repro.simulation.fleet import merge_collection_shards


def shard_aware_kwargs(
    backend: Any, node_offset: int, total_nodes: int
) -> dict:
    """Offset/fleet-size kwargs for backends that opt into them.

    Backends whose decisions depend on fleet-global state (the uniform
    backend draws stagger phases for the whole fleet) declare
    ``node_offset``/``total_nodes`` keyword parameters; purely per-node
    backends need nothing and get nothing.
    """
    try:
        params = inspect.signature(backend).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return {}
    if "node_offset" in params and "total_nodes" in params:
        return {"node_offset": node_offset, "total_nodes": total_nodes}
    return {}


class ShardPool:
    """Runs a collection backend over node ranges on ``workers`` threads.

    The calling thread works its share of the ranges itself; the other
    ``workers - 1`` shares go to helper threads that live as long as the
    pool.  Use as a context manager, or call :meth:`close` explicitly::

        with ShardPool(workers=2) as pool:
            stored, decisions = pool.collect(
                "adaptive", data, config.transmission,
                shard_slices(num_nodes, 8),
            )

    Args:
        workers: Threads sharing the ranges, the caller included; >= 1.
            ``workers=1`` runs every range on the calling thread.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._closed = False
        self._helpers: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=self.workers - 1,
                thread_name_prefix="repro-shard",
            )
            if self.workers > 1
            else None
        )

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the helper threads and release the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._helpers is not None:
            self._helpers.shutdown(wait=True)

    # -- the one real operation ----------------------------------------

    def collect(
        self,
        backend_name: str,
        data: np.ndarray,
        transmission: TransmissionConfig,
        ranges: Sequence[Tuple[int, int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the collection backend over node ranges, in the pool.

        Args:
            backend_name: Registered collection backend name.
            data: Validated trace, shape ``(T, N, d)`` (any float
                dtype; the backend computes in the trace's dtype).
            transmission: Transmission config for the backend.
            ranges: Contiguous node ranges ``[lo, hi)`` covering the
                fleet in order (from :func:`~repro.simulation.fleet.
                shard_slices`); range ``k`` goes to worker
                ``k % workers``, and worker 0 is the calling thread.

        Returns:
            ``(stored, decisions)`` for the whole fleet — bit-identical
            to the single-shard run.  A backend's own exception
            propagates unchanged, and the pool keeps serving.
        """
        if self._closed:
            raise SimulationError("ShardPool is closed")
        backend = COLLECTION_BACKENDS.get(backend_name)
        if data.ndim != 3:
            raise SimulationError(
                f"pool trace must be (T, N, d), got {data.shape}"
            )
        num_nodes = data.shape[1]
        ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        results: List[Any] = [None] * len(ranges)

        def run(worker: int) -> None:
            for k in range(worker, len(ranges), self.workers):
                lo, hi = ranges[k]
                results[k] = backend(
                    data[:, lo:hi],
                    transmission,
                    **shard_aware_kwargs(backend, lo, num_nodes),
                )

        helpers = range(1, min(self.workers, len(ranges)))
        futures = [self._helpers.submit(run, w) for w in helpers]
        try:
            run(0)
        finally:
            # Every helper finishes, and its outcome is read, before
            # the call returns or re-raises the caller's own error.
            errors = [future.exception() for future in futures]
        for error in errors:
            if error is not None:
                raise error
        return merge_collection_shards(results)


__all__ = ["ShardPool", "shard_aware_kwargs"]
