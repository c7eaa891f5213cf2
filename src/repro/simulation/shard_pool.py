"""Persistent shard workers over POSIX shared memory.

A process pool that pickles every shard's trace slice into a task and
the results back serializes gigabytes per run at N=1M.
:class:`ShardPool` — the pool behind ``Engine.run(..., workers=W)`` —
uses *persistent* worker processes and ``multiprocessing.shared_memory``
instead:

* the trace and both result columns (``stored``, ``decisions``) live in
  named shared-memory segments, written once and mapped zero-copy by
  every worker;
* workers are spawned once per pool and service any number of shard
  requests over a lightweight command pipe — a request names a
  contiguous node range ``[lo, hi)``, never carries array data;
* each worker writes its shard's results directly into the shared
  output columns, so the parent's merge is a single ``np.array`` copy
  out of the segment (no concatenation, no pickling).

The arithmetic is exactly the in-process sharded path's: every backend
runs on a contiguous node slice of the same trace with the same
shard-aware kwargs, so pooled results are bit-identical to
``shards=1`` for every registered backend and both dtypes.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransmissionConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.registry import COLLECTION_BACKENDS

#: Guard-canary geometry (``ShardPool(guard=True)``): each segment is
#: padded with one canary block on each side of the payload, filled
#: with a generation-salted 64-bit pattern and re-verified after every
#: collect — an out-of-range shard write tears the pattern.
_GUARD_WORDS = 8
_GUARD_NBYTES = _GUARD_WORDS * 8
_CANARY_SEED = 0x9E3779B97F4A7C15


def shm_range_owner(ranges: str):
    """Declare a function the owner of its assigned shm node ranges.

    The shared-memory lint (``SHM-002``) flags writes into attached
    segments unless the writer declares which ranges it owns and why
    overlapping writers cannot race.  The declaration is load-bearing
    documentation: the runtime sanitizer (``repro lint --sanitize``)
    stresses exactly this claim with guard canaries.
    """

    def mark(func):
        func.__shm_range_owner__ = ranges
        return func

    return mark


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


def _attach(name: str, unregister: bool) -> shared_memory.SharedMemory:
    """Attach an existing segment without tracker double-accounting.

    Before Python 3.13 an *attach* (``create=False``) still registers
    the segment with the process's resource tracker.  Under ``spawn``
    the worker runs its *own* tracker, which would unlink the parent's
    segment when the worker exits — so the registration is dropped
    right after attaching.  Under ``fork`` parent and worker share one
    tracker; registering into a set is idempotent there and
    unregistering would strip the parent's own entry, so the
    registration is left alone.
    """
    segment = shared_memory.SharedMemory(name=name)
    if unregister:
        try:  # pragma: no cover - depends on the Python version
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    return segment


def _as_view(
    segment: shared_memory.SharedMemory,
    shape: Tuple[int, ...],
    dtype: str,
    offset: int = 0,
) -> np.ndarray:
    return np.ndarray(
        shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset
    )


def _canary(generation: int) -> np.ndarray:
    """The 64-bit guard pattern for one collect generation."""
    word = np.uint64(_CANARY_SEED) ^ np.uint64(generation)
    return np.full(_GUARD_WORDS, word, dtype=np.uint64)


def _guard_views(
    segment: shared_memory.SharedMemory, nbytes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Head and tail canary blocks bracketing a guarded payload."""
    head = _as_view(segment, (_GUARD_WORDS,), "uint64", 0)
    tail = _as_view(segment, (_GUARD_WORDS,), "uint64", _GUARD_NBYTES + nbytes)
    return head, tail


@shm_range_owner(
    "writes stored/decisions only inside the [lo, hi) ranges of its own "
    "collect queue; the parent assigns disjoint ranges round-robin"
)
def _worker_main(conn, own_tracker: bool) -> None:
    """Worker loop: attach → collect ranges → detach, until ``stop``.

    Commands arrive as ``(verb, payload)`` tuples; every command gets
    exactly one ``("ok", result)`` or ``("error", message)`` reply, so
    the parent can strictly pair requests with responses.
    """
    segments: List[shared_memory.SharedMemory] = []
    trace = stored = decisions = None
    backend = None
    backend_kwargs: dict = {}
    transmission: Optional[TransmissionConfig] = None
    while True:
        try:
            verb, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if verb == "attach":
                # A re-attach (new collect) must not leak the previous
                # generation's mappings.
                for segment in segments:
                    segment.close()
                segments = []
                trace = stored = decisions = None
                attached: List[shared_memory.SharedMemory] = []
                try:
                    for key in ("trace", "stored", "decisions"):
                        attached.append(
                            _attach(payload[key][0], own_tracker)
                        )
                except Exception:
                    # Partial attach: close what did map, or the failed
                    # attach pins the earlier segments until exit.
                    for segment in attached:
                        segment.close()
                    raise
                segments = attached
                trace = _as_view(segments[0], *payload["trace"][1:])
                stored = _as_view(segments[1], *payload["stored"][1:])
                decisions = _as_view(segments[2], *payload["decisions"][1:])
                backend = COLLECTION_BACKENDS.get(payload["backend"])
                transmission = payload["transmission"]
                backend_kwargs = {"total_nodes": payload["total_nodes"]}
                conn.send(("ok", None))
            elif verb == "collect":
                if trace is None:
                    raise SimulationError("collect before attach")
                done = 0
                for lo, hi in payload:
                    kwargs = shard_aware_kwargs(
                        backend, lo, backend_kwargs["total_nodes"]
                    )
                    result = backend(trace[:, lo:hi], transmission, **kwargs)
                    stored[:, lo:hi] = result.stored
                    decisions[:, lo:hi] = result.decisions
                    done += 1
                conn.send(("ok", done))
            elif verb == "detach":
                for segment in segments:
                    segment.close()
                segments = []
                trace = stored = decisions = None
                conn.send(("ok", None))
            elif verb == "stop":
                for segment in segments:
                    segment.close()
                conn.send(("ok", None))
                break
            else:
                raise SimulationError(f"unknown pool command {verb!r}")
        except Exception as exc:  # reply, don't die: the pool outlives it
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class ShardPool:
    """Persistent collection workers sharing trace/result memory.

    A pool spawns its workers once and reuses them across any number of
    :meth:`collect` calls; per call, the trace is published to shared
    memory once and each worker services its queue of node-range
    requests zero-copy.  Use as a context manager, or call
    :meth:`close` explicitly::

        with ShardPool(workers=4) as pool:
            stored, decisions = pool.collect(
                "adaptive", data, config.transmission, shards=16
            )

    Args:
        workers: Number of persistent worker processes, >= 1.
        guard: Pad every segment with generation-counter canaries and
            verify them after each collect (the ``repro lint
            --sanitize`` instrumentation).  Off by default: the canary
            check costs one extra pass over 128 bytes per segment, but
            guarded layouts shift every view by ``_GUARD_NBYTES`` and
            production runs keep the exact PR 8 layout.
    """

    def __init__(self, workers: int, *, guard: bool = False) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.guard = bool(guard)
        self._generation = 0
        method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        context = mp.get_context(method)
        if method == "fork":
            # Start the resource tracker *before* forking so workers
            # inherit it: their attach-side registrations then land in
            # the parent's tracker (idempotent set adds) instead of
            # spawning one private tracker per worker that warns about
            # "leaked" segments it never owned.
            try:  # pragma: no cover - private but stable since 3.8
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:
                pass
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for _ in range(self.workers):
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    # Spawned workers run their own resource tracker and
                    # must drop attach-side registrations (see _attach).
                    args=(child_conn, method == "spawn"),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except Exception:
            # Partial spawn: stop the workers that did start, or their
            # processes and pipe fds outlive the failed constructor.
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and release the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop", None))
                conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- command plumbing ----------------------------------------------

    def _broadcast(
        self, verb: str, payload: Any, *, strict: bool = True
    ) -> None:
        errors = []
        for conn in self._conns:
            try:
                conn.send((verb, payload))
            except (OSError, BrokenPipeError) as exc:
                errors.append(repr(exc))
        for conn in self._conns:
            try:
                status, result = conn.recv()
            except (EOFError, OSError) as exc:
                status, result = "error", repr(exc)
            if status != "ok":
                errors.append(str(result))
        if errors and strict:
            raise SimulationError(
                f"shard worker failed {verb}: {errors[0]}"
            )

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
                dtype; workers compute in the trace's dtype).
            transmission: Transmission config for the backend.
            ranges: Contiguous node ranges ``[lo, hi)`` covering the
                fleet (from :func:`~repro.simulation.fleet.
                shard_slices`); range ``k`` goes to worker
                ``k % workers``, so each worker services its queue of
                requests over the same attached segments.

        Returns:
            ``(stored, decisions)`` for the whole fleet — bit-identical
            to the in-process sharded run.
        """
        if self._closed:
            raise SimulationError("ShardPool is closed")
        # Fail fast in the parent (with suggestions) before any worker
        # sees the name.
        COLLECTION_BACKENDS.get(backend_name)
        data = np.ascontiguousarray(data)
        if data.ndim != 3:
            raise SimulationError(
                f"pool trace must be (T, N, d), got {data.shape}"
            )
        num_steps, num_nodes, dim = data.shape
        decisions_dtype = np.dtype(bool)
        # Guarded layout: [canary | payload | canary]; views shift by
        # the head-canary offset and everything else is unchanged.
        pad = _GUARD_NBYTES if self.guard else 0
        self._generation += 1
        generation = self._generation
        payload_nbytes = (
            data.nbytes,
            data.nbytes,
            num_steps * num_nodes * decisions_dtype.itemsize,
        )
        segments = []
        try:
            # repro: noqa KER-003(three fixed segments, not a node loop)
            for nbytes in payload_nbytes:
                segments.append(
                    shared_memory.SharedMemory(
                        create=True, size=max(1, nbytes) + 2 * pad
                    )
                )
            trace_seg, stored_seg, decisions_seg = segments
            if self.guard:
                for segment, nbytes in zip(segments, payload_nbytes):
                    head, tail = _guard_views(segment, max(1, nbytes))
                    head[:] = _canary(generation)
                    tail[:] = _canary(generation)
            # repro: shm-owner(parent publishes the trace before any worker attaches)
            _as_view(trace_seg, data.shape, data.dtype.name, pad)[:] = data
            try:
                self._broadcast(
                    "attach",
                    {
                        "trace": (
                            trace_seg.name, data.shape, data.dtype.name, pad,
                        ),
                        "stored": (
                            stored_seg.name, data.shape, data.dtype.name, pad,
                        ),
                        "decisions": (
                            decisions_seg.name,
                            (num_steps, num_nodes),
                            decisions_dtype.name,
                            pad,
                        ),
                        "backend": backend_name,
                        "transmission": transmission,
                        "total_nodes": num_nodes,
                    },
                )
            except SimulationError:
                # A partially failed attach broadcast leaves the
                # successful workers mapped to segments this finally
                # block is about to unlink; detach them first.
                self._broadcast("detach", None, strict=False)
                raise
            try:
                queues: List[List[Tuple[int, int]]] = [
                    [] for _ in range(self.workers)
                ]
                for k, (lo, hi) in enumerate(ranges):
                    queues[k % self.workers].append((int(lo), int(hi)))
                active = [
                    (conn, queue)
                    for conn, queue in zip(self._conns, queues)
                    if queue
                ]
                for conn, queue in active:
                    conn.send(("collect", queue))
                errors = []
                for conn, _ in active:
                    try:
                        status, result = conn.recv()
                    except (EOFError, OSError) as exc:
                        status, result = "error", repr(exc)
                    if status != "ok":
                        errors.append(str(result))
                if errors:
                    raise SimulationError(
                        f"shard worker failed collect: {errors[0]}"
                    )
                stored = np.array(
                    _as_view(stored_seg, data.shape, data.dtype.name, pad)
                )
                decisions = np.array(
                    _as_view(
                        decisions_seg,
                        (num_steps, num_nodes),
                        decisions_dtype.name,
                        pad,
                    )
                )
            finally:
                # Never mask a collect error with a detach failure.
                self._broadcast("detach", None, strict=False)
            if self.guard:
                self._verify_guards(
                    segments, payload_nbytes, generation
                )
            return stored, decisions
        finally:
            for segment in segments:
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def _verify_guards(
        self,
        segments: Sequence[shared_memory.SharedMemory],
        payload_nbytes: Sequence[int],
        generation: int,
    ) -> None:
        """Raise if any canary block was torn during this collect."""
        expected = _canary(generation)
        torn = []
        for label, segment, nbytes in zip(
            ("trace", "stored", "decisions"), segments, payload_nbytes
        ):
            head, tail = _guard_views(segment, max(1, nbytes))
            if not np.array_equal(head, expected):
                torn.append(f"{label}:head")
            if not np.array_equal(tail, expected):
                torn.append(f"{label}:tail")
        if torn:
            raise SimulationError(
                f"shard pool guard canary torn after collect generation "
                f"{generation}: {', '.join(torn)} — a worker wrote "
                "outside its segment payload"
            )


__all__ = ["ShardPool", "shard_aware_kwargs", "shm_range_owner"]
