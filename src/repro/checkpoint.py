"""Versioned, portable checkpoints for streaming sessions.

A :class:`Checkpoint` is the durable form of a live
:class:`~repro.session.StreamSession`: the resolved
:class:`~repro.core.config.PipelineConfig`, the session's metadata
(fleet shape, policy, clock, ingestion counters) and the full nested
component state assembled from the ``get_state``/``set_state``
contracts of :class:`~repro.simulation.fleet.FleetState`,
:class:`~repro.simulation.transport.Channel`,
:class:`~repro.core.ring.SlotRing`,
:class:`~repro.clustering.dynamic.DynamicClusterTracker` and every
:class:`~repro.forecasting.bank.ForecasterBank` (including
``ObjectBank``-wrapped ARIMA/LSTM/user models via the
:meth:`~repro.forecasting.base.Forecaster.get_state` protocol).

On disk a checkpoint is a single ``.npz`` archive: every numpy array in
the state tree is stored as its own archive member, and one JSON
*manifest* member carries the format version, the resolved config and
all non-array state with placeholders pointing at the array members.
Array members are written **uncompressed** (``ZIP_STORED``) so
:meth:`Checkpoint.load` can map them straight off disk
(``mmap=True``): the archive is mapped copy-on-write once, each
member becomes a CRC-checked :class:`numpy.memmap` view of that map,
and the session restore path *adopts* those views in place of freshly
allocated columns — a resume at N=1M never holds two copies of the
state.  The manifest itself stays deflated, and archives from older
builds (whose array members are deflated) load transparently through
the in-memory path, member by member.  The artifact is portable — no
pickling, nothing process-specific — and :meth:`Checkpoint.load`
rejects unknown format versions and damaged archives loudly instead
of misinterpreting them.

Resuming is exact by construction: every component contract captures
all forward-relevant state (including RNG streams), and the round-trip
test suite pins a resumed session bit-identical to one that never
stopped, for every registered transmission policy and forecaster bank.
"""

from __future__ import annotations

import io
import json
import math
import os
import queue
import struct
import threading
import tokenize
import weakref
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import CheckpointError


def _library_version() -> str:
    """``repro.__version__``, resolved lazily (import-cycle safe)."""
    import repro

    return getattr(repro, "__version__", "unknown")

#: Format version written into every manifest; bumped on any change to
#: the artifact layout or the component state contracts.
CHECKPOINT_FORMAT_VERSION = 2

#: Format versions :meth:`Checkpoint.load` accepts.  Format 1 (repro
#: 2.0.0 and earlier) also stores every slot's tracker labels and the
#: pipeline's stage timings; restoring reads the last ``M`` label rows
#: and ignores the timings.
_READABLE_VERSIONS = (1, 2)

#: Archive member holding the JSON manifest.
_MANIFEST_MEMBER = "manifest.json"

#: Placeholder key marking an extracted array in the manifest tree.
_ARRAY_KEY = "__array__"


def _encode(value: Any, arrays: Dict[str, np.ndarray], path: str) -> Any:
    """Recursively split a state tree into JSON-able data + arrays.

    Numpy arrays are pulled out into ``arrays`` under sequential keys
    and replaced by ``{"__array__": key}`` placeholders; scalars, dicts
    and lists pass through.  Anything else is a contract violation and
    raises :class:`CheckpointError` naming the offending path.
    """
    if isinstance(value, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = value
        return {_ARRAY_KEY: key}
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        encoded = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise CheckpointError(
                    f"state key {k!r} at {path!r} is not a string"
                )
            if k == _ARRAY_KEY:
                raise CheckpointError(
                    f"state key {_ARRAY_KEY!r} at {path!r} collides with "
                    "the checkpoint array placeholder"
                )
            encoded[k] = _encode(v, arrays, f"{path}.{k}")
        return encoded
    if isinstance(value, (list, tuple)):
        return [
            _encode(v, arrays, f"{path}[{i}]") for i, v in enumerate(value)
        ]
    raise CheckpointError(
        f"state value of type {type(value).__name__} at {path!r} is not "
        "checkpoint-serializable; get_state must return JSON-able "
        "scalars, dicts, lists and numpy arrays"
    )


def _decode(value: Any, arrays: Mapping[str, np.ndarray], path: str) -> Any:
    """Reassemble a state tree from manifest data + archive arrays."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            key = value[_ARRAY_KEY]
            try:
                return arrays[key]
            except KeyError:
                raise CheckpointError(
                    f"checkpoint is missing array member {key!r} "
                    f"referenced at {path!r} (truncated artifact?)"
                ) from None
        return {k: _decode(v, arrays, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [
            _decode(v, arrays, f"{path}[{i}]") for i, v in enumerate(value)
        ]
    return value


#: A ZIP local file header's fixed 30 bytes, as far as the mapped path
#: reads them: signature, name length and extra-field length.  Sizes
#: and the CRC-32 come from the central directory instead.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_LOCAL_SIGNATURE = b"PK\x03\x04"

#: General-purpose flag bits 0 (encrypted) and 6 (strong encryption):
#: a mapped view of such a member would be ciphertext.
_ENCRYPTED_FLAGS = 0x41

#: Bytes of a mapped member handed to numpy's npy-header parser: the
#: 12-byte magic, version and length prefix plus the 10,000-byte header
#: limit ``np.load`` applies without ``allow_pickle``.
_NPY_HEADER_WINDOW = 12 + 10_000

#: What numpy's npy-header parser raises on malformed bytes.
_NPY_HEADER_ERRORS = (ValueError, SyntaxError, tokenize.TokenError)

#: Largest read when checking a mapped member's CRC-32.  The check reads
#: the archive through one buffer of at most this size, not through the
#: map: reading through the map would fault every mapped page in, and a
#: resume that adopts the map would keep them all resident.
_CRC_CHUNK = 1 << 18


#: Most descriptors waiting for the release thread at once; past this a
#: caller closes its own, as it would without the thread.
_RELEASE_CAP = 64


def _close(fd: int) -> None:
    """Close a read-only descriptor; a failed close leaves nothing to do."""
    try:
        os.close(fd)
    except OSError:
        pass


class _Releaser:
    """A daemon thread that closes the last descriptors of old archives.

    When the last reference to a file that was renamed over goes away,
    the kernel frees the file's blocks in the thread that dropped it.
    On ext4 on a virtual disk mounted ``discard``, that took 15-44 ms
    for a 1.36 MB archive whose blocks had been written: about ten
    times the work of a resume.  :meth:`Checkpoint.save` and every
    mapped :meth:`Checkpoint.load` therefore keep one more descriptor
    of the archive and hand it here, so that the close which frees the
    blocks runs on this thread and never in the caller.

    There is one per process, because what it serves (the last
    reference to a file) is process-wide.  The thread starts at the
    first save or mapped load, not at import.  About
    :data:`_RELEASE_CAP` descriptors wait at most; past that, or while
    no thread runs, the caller closes inline.  A forked child gets an
    empty queue and no thread, and closes the descriptors it inherited
    from the queue.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        # A SimpleQueue, because its put is reentrant: release may run
        # in a weakref callback while its thread is inside a put or get.
        self._pending: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the thread unless it runs.  Called by save and load,
        never by a callback: starting a thread takes a lock."""
        with self._lock:
            if self._thread is not None:
                return
            thread = threading.Thread(
                target=self._run, name="repro-checkpoint-release",
                daemon=True,
            )
            try:
                thread.start()
            except RuntimeError:
                return  # no thread: releases close inline
            self._thread = thread

    def release(self, fd: int) -> None:
        """Close ``fd`` on the thread, or here when none runs or it is
        behind.  Takes no lock, so a weakref callback may call it."""
        if self._thread is None or self._pending.qsize() >= _RELEASE_CAP:
            _close(fd)
        else:
            self._pending.put(fd)

    def _run(self) -> None:
        pending = self._pending
        while True:
            _close(pending.get())

    def _after_fork_in_child(self) -> None:
        # The parent's thread does not exist here, and its lock may have
        # been held at the fork.
        inherited = self._pending
        self._reset()
        while True:
            try:
                _close(inherited.get_nowait())
            except queue.Empty:
                break


_RELEASER = _Releaser()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_RELEASER._after_fork_in_child)


def _hold(path: Path) -> Optional[int]:
    """A read-only descriptor of the file at ``path``, if there is one,
    for the release thread, which this starts.

    POSIX only: elsewhere an open file cannot be renamed over.
    """
    if os.name != "posix":
        return None
    _RELEASER.start()
    try:
        return os.open(path, os.O_RDONLY)
    except OSError:
        return None


def _remove_stale_scratch(path: Path) -> None:
    """Delete the ``<name>.tmp-<pid>`` files of killed saves to ``path``.

    A save writes its archive to such a sibling and renames it over
    ``path``; a save killed before the rename leaves it behind.  Only
    files whose writer process no longer exists are removed, so a save
    running elsewhere keeps its temp file.  POSIX only: elsewhere
    ``os.kill`` cannot probe a process without signalling it.
    """
    if os.name != "posix":
        return
    prefix = path.name + ".tmp-"
    try:
        entries = [
            entry.name for entry in os.scandir(path.parent)
            if entry.name.startswith(prefix)
        ]
    except OSError:
        return
    for name in entries:
        pid = name[len(prefix):]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            path.with_name(name).unlink(missing_ok=True)
        except (OSError, OverflowError):
            continue  # alive (not ours to signal) or not a process id


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> bytes:
    """A member's bytes through ``zipfile``, which checks name and CRC-32.

    ``zipfile`` raises ``RuntimeError`` for a member flagged encrypted
    (it wants a password) and ``NotImplementedError`` for one flagged
    strongly encrypted; checkpoints are never encrypted, so both mean
    damage too.
    """
    try:
        return archive.read(info)
    except (
        zipfile.BadZipFile, zlib.error, EOFError, RuntimeError,
        NotImplementedError,
    ) as exc:
        raise CheckpointError(
            f"checkpoint member {info.filename!r} is corrupt: {exc}"
        ) from exc


def _load_member(
    archive: zipfile.ZipFile, info: zipfile.ZipInfo
) -> np.ndarray:
    """Read one ``.npy`` member into memory (deflated or unmappable)."""
    data = _read_member(archive, info)
    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except _NPY_HEADER_ERRORS as exc:
        raise CheckpointError(
            f"checkpoint member {info.filename!r} is not an npy array: {exc}"
        ) from exc


def _crc32(
    handle: io.BufferedReader, start: int, size: int, buffer: memoryview
) -> int:
    """CRC-32 of ``size`` bytes at ``start``, read through ``buffer``."""
    handle.seek(start)
    crc = 0
    while size > 0:
        got = handle.readinto(buffer[: min(size, len(buffer))])
        if not got:
            break
        crc = zlib.crc32(buffer[:got], crc)
        size -= got
    return crc


def _map_member(
    whole: np.memmap,
    handle: io.BufferedReader,
    buffer: memoryview,
    info: zipfile.ZipInfo,
) -> "np.ndarray | None":
    """One ``ZIP_STORED`` ``.npy`` member as a view of the archive's map.

    The local header and the npy header are read from ``whole``, the
    copy-on-write map of the archive; the member's stored bytes are
    checked against the central directory's CRC-32 through ``buffer``
    before any view is made.  The view is a :class:`numpy.memmap`
    sharing ``whole``'s mapping, in the member's C or Fortran order.

    Returns ``None`` when only ``np.load`` can read the member (object
    dtypes, npy versions other than 1.0 and 2.0).

    Raises:
        CheckpointError: The member is flagged encrypted, the local
            header is missing or names another member, the member runs
            past the end of the file, its CRC-32 does not match, its
            npy header does not parse, or its array does not fit its
            stored size.
    """
    name = info.filename
    if info.flag_bits & _ENCRYPTED_FLAGS:
        raise CheckpointError(
            f"checkpoint member {name!r} is flagged encrypted"
        )
    local = info.header_offset
    if local < 0 or local + _LOCAL_HEADER.size > whole.size:
        raise CheckpointError(
            f"checkpoint member {name!r} has its local header outside "
            "the file"
        )
    signature, name_size, extra_size = _LOCAL_HEADER.unpack_from(
        whole, local
    )
    named = local + _LOCAL_HEADER.size
    start = named + name_size + extra_size
    stop = start + info.compress_size
    if signature != _LOCAL_SIGNATURE or stop > whole.size:
        raise CheckpointError(
            f"checkpoint member {name!r} has no local header at its "
            "central-directory offset, or runs past the end of the file"
        )
    local_name = whole[named : named + name_size].tobytes()
    if local_name != info.orig_filename.encode():
        raise CheckpointError(
            f"checkpoint member {name!r} has local header name "
            f"{local_name!r}"
        )
    if _crc32(handle, start, info.compress_size, buffer) != info.CRC:
        raise CheckpointError(
            f"checkpoint member {name!r} fails its CRC-32 check"
        )
    header = io.BytesIO(
        whole[start : min(stop, start + _NPY_HEADER_WINDOW)].tobytes()
    )
    try:
        version = np.lib.format.read_magic(header)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                header
            )
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                header
            )
        else:
            return None
    except _NPY_HEADER_ERRORS as exc:
        raise CheckpointError(
            f"checkpoint member {name!r} has a malformed npy header: {exc}"
        ) from exc
    if dtype.hasobject:
        return None
    begin = start + header.tell()
    end = begin + math.prod(shape) * dtype.itemsize
    if min(shape, default=0) < 0 or end > stop:
        raise CheckpointError(
            f"checkpoint member {name!r} declares a {shape} {dtype} array "
            f"that does not fit its {info.compress_size} stored bytes"
        )
    try:
        return whole[begin:end].view(dtype).reshape(
            shape, order="F" if fortran else "C"
        )
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint member {name!r} does not view as a {shape} "
            f"{dtype} array: {exc}"
        ) from exc


def _read_manifest(archive: zipfile.ZipFile, path: Path) -> Dict[str, Any]:
    """The archive's manifest, of a format version this build reads."""
    try:
        info = archive.getinfo(_MANIFEST_MEMBER)
    except KeyError:
        raise CheckpointError(
            f"{path} has no {_MANIFEST_MEMBER}; not a repro checkpoint"
        ) from None
    data = _read_member(archive, info)
    try:
        manifest = json.loads(data)
    except ValueError as exc:
        raise CheckpointError(
            f"{path} has an unreadable {_MANIFEST_MEMBER}: {exc}"
        ) from exc
    version = manifest.get("format_version")
    if version not in _READABLE_VERSIONS:
        readable = ", ".join(str(v) for v in _READABLE_VERSIONS)
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; this "
            f"build reads versions {readable} — re-snapshot with a "
            "matching library version"
        )
    return manifest


def _read_arrays(
    handle: io.BufferedReader, archive: zipfile.ZipFile, *, mmap: bool
) -> Dict[str, np.ndarray]:
    """Every array member, keyed by name without ``.npy``.

    With ``mmap``, the archive is mapped copy-on-write once and every
    ``ZIP_STORED`` member becomes a CRC-checked view of that map (see
    :func:`_map_member`); deflated members, and any member only
    ``np.load`` can read, are loaded into memory.
    """
    members = [
        info for info in archive.infolist()
        if info.filename != _MANIFEST_MEMBER
    ]
    if mmap:
        whole = np.memmap(handle, dtype=np.uint8, mode="c")
        largest = max((info.compress_size for info in members), default=0)
        buffer = memoryview(bytearray(min(largest, _CRC_CHUNK)))
    arrays: Dict[str, np.ndarray] = {}
    for info in members:
        array = None
        if mmap and info.compress_type == zipfile.ZIP_STORED:
            array = _map_member(whole, handle, buffer, info)
        if array is None:
            array = _load_member(archive, info)
        arrays[info.filename[: -len(".npy")]] = array
    if mmap and os.name == "posix":
        # The map outlives the handle.  Once a later save has replaced
        # the archive, the unmap would drop its last reference and free
        # its blocks in whichever thread lets the views go; a second
        # descriptor, closed on the release thread after the unmap,
        # takes that cost off the caller.
        _RELEASER.start()
        weakref.finalize(
            whole.base, _RELEASER.release, os.dup(handle.fileno())
        ).atexit = False
    return arrays


class Checkpoint:
    """A session's durable state: resolved config + metadata + state tree.

    Instances are produced by :meth:`repro.session.StreamSession.
    snapshot` and consumed by :meth:`repro.api.Engine.resume`; they can
    round-trip through disk via :meth:`save`/:meth:`load`.

    Args:
        config: The resolved pipeline config in
            :meth:`~repro.core.config.PipelineConfig.to_dict` form.
        session: Session metadata (fleet shape, policy name, clock,
            reorder window, ingestion counters, factory provenance).
        state: Nested component state assembled from the
            ``get_state`` contracts.
        version: Checkpoint format version (current on creation).
        library_version: ``repro.__version__`` that wrote the artifact
            (informational — compatibility is governed by ``version``).
    """

    def __init__(
        self,
        *,
        config: Dict[str, Any],
        session: Dict[str, Any],
        state: Dict[str, Any],
        version: int = CHECKPOINT_FORMAT_VERSION,
        library_version: str = "",
    ) -> None:
        self.config = config
        self.session = session
        self.state = state
        self.version = int(version)
        self.library_version = library_version or _library_version()
        self._adoptable = False

    def claim_adoption(self) -> bool:
        """Claim this checkpoint's arrays for zero-copy adoption — once.

        Only checkpoints loaded with ``mmap=True`` are adoptable: their
        arrays are private copy-on-write views this object owns, so the
        first restorer may take them as live columns instead of copying.
        The claim is one-shot — a second restore of the same object gets
        ``False`` and must copy, preventing two sessions from silently
        aliasing the same state.  Snapshots of live sessions are never
        adoptable (their arrays would tie the checkpoint to the restored
        session's mutations).
        """
        if not self._adoptable:
            return False
        self._adoptable = False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        meta = self.session
        return (
            f"Checkpoint(v{self.version}, N={meta.get('num_nodes')}, "
            f"d={meta.get('num_resources')}, t={meta.get('time')}, "
            f"policy={meta.get('policy')!r})"
        )

    # ------------------------------------------------------------------
    # Disk round-trip
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the checkpoint as one ``.npz``-style archive.

        The write is atomic: the archive is assembled in a sibling
        temporary file and renamed over ``path``, so a crash mid-save
        (the very failure checkpoints exist to survive) can never
        destroy a previous good checkpoint at the same path.

        Array members are written ``ZIP_STORED`` (uncompressed) so a
        later :meth:`load` with ``mmap=True`` can map them off disk
        without inflating anything; each array streams straight into
        its member.  The manifest stays deflated and is written
        compact.

        On POSIX the archive being replaced is opened before the rename
        and its descriptor handed to a daemon release thread, so
        freeing its disk blocks never blocks the caller.

        Returns:
            The path written.
        """
        arrays: Dict[str, np.ndarray] = {}
        manifest = {
            "format_version": self.version,
            "library_version": self.library_version,
            "config": self.config,
            "session": _encode(self.session, arrays, "session"),
            "state": _encode(self.state, arrays, "state"),
        }
        path = Path(path)
        _remove_stale_scratch(path)
        scratch = path.with_name(path.name + f".tmp-{os.getpid()}")
        try:
            with zipfile.ZipFile(
                scratch, "w", zipfile.ZIP_DEFLATED
            ) as archive:
                archive.writestr(
                    _MANIFEST_MEMBER,
                    json.dumps(manifest, separators=(",", ":")),
                )
                for key, array in arrays.items():
                    info = zipfile.ZipInfo(f"{key}.npy")
                    # zipfile picks zip64 from file_size with 5% to
                    # spare, which covers the npy header.
                    info.file_size = array.nbytes
                    with archive.open(info, "w") as member:
                        np.lib.format.write_array(
                            member, array, allow_pickle=False
                        )
            replaced = _hold(path)
            try:
                os.replace(scratch, path)
            finally:
                if replaced is not None:
                    _RELEASER.release(replaced)
        finally:
            scratch.unlink(missing_ok=True)
        return path

    @classmethod
    def load(
        cls, path: Union[str, Path], *, mmap: bool = False
    ) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`.

        Args:
            mmap: Map stored array members copy-on-write instead of
                reading them into memory.  The resulting checkpoint is
                *adoptable* (see :meth:`claim_adoption`): the first
                session to restore it takes the mapped views as its live
                columns, so resuming an N=1M fleet never materializes a
                second copy of the state.  The archive is mapped once;
                every stored member is checked against its CRC-32 before
                its view is returned.  Members that cannot be mapped
                (deflated archives from older builds) fall back to the
                in-memory loader, member by member.  On POSIX each live
                map also holds one extra descriptor of the archive,
                closed on the release thread once the map is gone, so
                that dropping a resumed session never frees a replaced
                archive's blocks in the caller.

        Raises:
            CheckpointError: On a corrupt or truncated artifact (a CRC,
                name, header or size mismatch, on either path), a
                missing manifest, or a format version this build does
                not understand.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            try:
                archive = zipfile.ZipFile(handle)
            except zipfile.BadZipFile as exc:
                raise CheckpointError(
                    f"{path} is not a checkpoint: {exc}"
                ) from exc
            with archive:
                manifest = _read_manifest(archive, path)
                arrays = _read_arrays(handle, archive, mmap=mmap)
        checkpoint = cls(
            config=manifest["config"],
            session=_decode(manifest["session"], arrays, "session"),
            state=_decode(manifest["state"], arrays, "state"),
            version=int(manifest["format_version"]),
            library_version=manifest.get("library_version", "unknown"),
        )
        checkpoint._adoptable = bool(mmap)
        return checkpoint


def encode_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Validate a state tree against the checkpoint contract.

    Public wrapper over the serializer used by :meth:`Checkpoint.save`:
    returns the JSON-able manifest form plus the extracted arrays, and
    raises :class:`CheckpointError` naming the offending path when the
    tree contains anything a checkpoint cannot carry.  The runtime
    contract verifier (``repro lint --runtime``) uses this to prove
    every registered component's ``get_state`` is serializable without
    writing an artifact.
    """
    arrays: Dict[str, np.ndarray] = {}
    return _encode(state, arrays, "state"), arrays


def state_equal(a: Any, b: Any) -> bool:
    """Deep equality over state trees, strict about arrays.

    Arrays must match in dtype, shape and bytes (NaNs compare equal —
    a resumed NaN is still the same state); dicts and lists compare
    structurally; scalars compare by ``==`` with ``bool``/``int``
    distinguished so a resume cannot silently coerce types.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        return bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            return False
        return all(state_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(state_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return bool(a == b)


def as_checkpoint(
    source: Union[Checkpoint, str, Path], *, mmap: bool = False
) -> Checkpoint:
    """Coerce a checkpoint-or-path into a loaded :class:`Checkpoint`.

    ``mmap`` applies only when ``source`` is a path (see
    :meth:`Checkpoint.load`); an already-loaded checkpoint passes
    through untouched.
    """
    if isinstance(source, Checkpoint):
        return source
    if isinstance(source, (str, Path)):
        return Checkpoint.load(source, mmap=mmap)
    raise CheckpointError(
        f"expected a Checkpoint or a path, got {type(source).__name__}"
    )


def config_mismatch(
    checkpoint_config: Mapping[str, Any], engine_config: Mapping[str, Any]
) -> List[Tuple[str, Any, Any]]:
    """Leaf-level differences between two resolved config dicts.

    Returns ``(dotted.path, checkpoint_value, engine_value)`` triples —
    empty when the configs agree — so mismatch errors can name exactly
    what diverged instead of dumping both dicts.
    """
    diffs: List[Tuple[str, Any, Any]] = []

    def walk(a: Any, b: Any, path: str) -> None:
        if isinstance(a, Mapping) and isinstance(b, Mapping):
            for key in sorted(set(a) | set(b)):
                walk(
                    a.get(key, "<missing>"),
                    b.get(key, "<missing>"),
                    f"{path}.{key}" if path else str(key),
                )
        elif a != b:
            diffs.append((path, a, b))

    walk(checkpoint_config, engine_config, "")
    return diffs


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "as_checkpoint",
    "config_mismatch",
    "encode_state",
    "state_equal",
]
