"""Preallocated per-slot history: a bounded ring and a growing series.

The online pipeline only ever looks back ``M' + 1`` slots for membership
forecasting and offset estimation.  A :class:`SlotRing` keeps that
window in one preallocated ``(maxlen, …)`` array instead of a deque of
per-slot array objects: appends are a single row copy into recycled
storage (no per-slot allocation, no object churn), and the window reads
back in order as zero-copy row views.

The forecasters train on whole per-slot series that grow with the
stream (the tracker's centroids, the mean bank's rows).  A
:class:`SlotSeries` keeps such a series in one array that doubles when
full: an append is one row copy, and the series reads back as one
contiguous slice, so a checkpoint or a retrain copies one block.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ConfigurationError, DataError


class SlotRing:
    """Fixed-capacity ring of the last ``maxlen`` per-slot arrays.

    Storage is allocated once, on the first append (when the slot shape
    and dtype become known), and rows are recycled thereafter.
    Iteration yields the retained slots oldest → newest, as views into
    the buffer — the drop-in contract of the ``deque(maxlen=…)`` it
    replaces.

    Args:
        maxlen: Window size (slots retained), >= 1.
        dtype: The buffer's dtype: appended slots and restored windows
            are cast to it.  None (the default) takes the first
            appended slot's dtype, or a restored window's.
    """

    __slots__ = ("maxlen", "dtype", "_buffer", "_length", "_cursor")

    def __init__(
        self, maxlen: int, dtype: Optional[np.typing.DTypeLike] = None
    ) -> None:
        if maxlen < 1:
            raise ConfigurationError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = int(maxlen)
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._buffer: Optional[np.ndarray] = None
        self._length = 0
        self._cursor = 0

    def append(self, value: np.ndarray) -> None:
        """Copy one slot's array into the ring (evicting the oldest)."""
        # repro: noqa DT-001(ring adopts the caller's dtype by design)
        arr = np.asarray(value)
        if self._buffer is None:
            self._buffer = np.empty(
                (self.maxlen,) + arr.shape,
                dtype=arr.dtype if self.dtype is None else self.dtype,
            )
        elif arr.shape != self._buffer.shape[1:]:
            raise DataError(
                f"slot shape {arr.shape} does not match the ring's "
                f"{self._buffer.shape[1:]}"
            )
        self._buffer[self._cursor] = arr
        self._cursor = (self._cursor + 1) % self.maxlen
        if self._length < self.maxlen:
            self._length += 1

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[np.ndarray]:
        """Retained slots oldest → newest (zero-copy row views)."""
        if self._buffer is None:
            return
        start = (self._cursor - self._length) % self.maxlen
        for k in range(self._length):
            yield self._buffer[(start + k) % self.maxlen]

    def __getitem__(self, index: int) -> np.ndarray:
        """The ``index``-th retained slot (0 oldest, -1 newest)."""
        if not -self._length <= index < self._length:
            raise IndexError(index)
        if index < 0:
            index += self._length
        start = (self._cursor - self._length) % self.maxlen
        return self._buffer[(start + index) % self.maxlen]

    def ordered(self) -> np.ndarray:
        """The window stacked oldest → newest, shape ``(len, …)`` (copy)."""
        if self._buffer is None:
            raise DataError("empty ring has no window")
        start = (self._cursor - self._length) % self.maxlen
        index = (start + np.arange(self._length)) % self.maxlen
        return self._buffer[index]

    def clear(self) -> None:
        """Forget all retained slots (storage stays allocated)."""
        self._length = 0
        self._cursor = 0

    def reindex(self, index_map: np.ndarray, fill) -> None:
        """Remap axis 0 of every retained slot (fleet churn support).

        Each retained slot array is rebuilt as
        ``new[i] = old[index_map[i]]`` where ``index_map[i] >= 0``, and
        ``new[i] = fill`` for ``index_map[i] == -1`` (a node with no
        history — a fresh join).  The window length and order are
        unchanged; the buffer is reallocated to the new slot shape.

        Args:
            index_map: int array, one entry per *new* row: the old row
                index it descends from, or ``-1``.
            fill: Backfill value for ``-1`` rows (scalar, broadcast
                over the slot's trailing dimensions).
        """
        index_map = np.asarray(index_map, dtype=np.int64).ravel()
        if self._buffer is None or self._length == 0:
            # Nothing retained: drop the allocation so the next append
            # defines the new slot shape.
            self._buffer = None
            self.clear()
            return
        window = self.ordered()
        fresh = index_map < 0
        remapped = window[:, np.where(fresh, 0, index_map)]
        remapped[:, fresh] = fill
        self._buffer = None
        self.clear()
        for row in remapped:
            self.append(row)

    # -- checkpoint state contract --------------------------------------

    def get_state(self) -> dict:
        """Serializable ring state: the retained window, oldest first.

        The cursor position is not part of the contract — only the
        window's contents and order are observable, so restoring via
        re-appends is bit-identical to the original ring.
        """
        return {
            "maxlen": self.maxlen,
            "window": self.ordered() if self._length else None,
        }

    def set_state(self, state: dict, *, adopt: bool = False) -> None:
        """Restore a window captured by :meth:`get_state`.

        Args:
            adopt: Adopt a *full* window array as the ring's buffer
                without copying (the zero-copy checkpoint-resume path —
                the window rows become the recycled storage, cursor at
                the oldest row).  Partial windows still copy: the buffer
                must be ``maxlen`` rows.  Default False: rows are
                re-appended (copied) and the state stays independent.
        """
        if int(state["maxlen"]) != self.maxlen:
            raise DataError(
                f"ring maxlen {self.maxlen} cannot load a window of "
                f"maxlen {state['maxlen']}"
            )
        self._buffer = None
        self.clear()
        window = state["window"]
        if window is None:
            return
        # repro: noqa DT-001(keeps the checkpoint array's dtype)
        window = np.asarray(window)
        if self.dtype is not None and window.dtype != self.dtype:
            # A fresh array of the ring's dtype, so adopting it aliases
            # nothing (format-1/2 archives hold int64 label windows).
            window = window.astype(self.dtype)
        if adopt and window.shape[0] == self.maxlen:
            # ordered() returned oldest→newest, so cursor 0 with a full
            # length reproduces the same logical order over this buffer.
            self._buffer = window
            self._length = self.maxlen
            self._cursor = 0
            return
        for row in window:
            self.append(row)


class SlotSeries:
    """Append-only series of per-slot arrays in one doubling buffer.

    Storage is allocated on the first append, :attr:`INITIAL_CAPACITY`
    rows of that slot's shape and dtype, and doubles whenever it is
    full, so an append costs one row copy amortized.  :meth:`view` and
    :meth:`tail` return read-only views of the live buffer; whatever
    leaves the series to be kept or changed goes through :meth:`copy`.
    """

    __slots__ = ("_buffer", "_length")

    #: Rows allocated at the first append.
    INITIAL_CAPACITY = 16

    def __init__(self) -> None:
        self._buffer: Optional[np.ndarray] = None
        self._length = 0

    def append(self, value: np.ndarray) -> None:
        """Copy one slot's array onto the end of the series."""
        if self._buffer is None:
            self._buffer = np.empty(
                (self.INITIAL_CAPACITY,) + value.shape, dtype=value.dtype
            )
        elif value.shape != self._buffer.shape[1:]:
            raise DataError(
                f"slot shape {value.shape} does not match the series' "
                f"{self._buffer.shape[1:]}"
            )
        elif self._length == len(self._buffer):
            grown = np.empty(
                (2 * self._length,) + value.shape, dtype=self._buffer.dtype
            )
            grown[: self._length] = self._buffer
            self._buffer = grown
        self._buffer[self._length] = value
        self._length += 1

    def __len__(self) -> int:
        return self._length

    def view(self) -> np.ndarray:
        """Every slot so far, oldest first, ``(len, …)`` (read-only view).

        Raises:
            DataError: Nothing was ever appended or loaded, so the slot
                shape is unknown.
        """
        if self._buffer is None:
            raise DataError("empty series has no slot shape")
        rows = self._buffer[: self._length]
        rows.flags.writeable = False
        return rows

    def tail(self, count: int) -> np.ndarray:
        """The last ``count`` slots (all of them when fewer), oldest
        first (read-only view)."""
        rows = self.view()
        return rows[max(0, len(rows) - count):] if count > 0 else rows[:0]

    def copy(self) -> np.ndarray:
        """Every slot so far as a fresh C-contiguous ``(len, …)`` array."""
        return self.view().copy()

    def load(self, rows: np.ndarray) -> None:
        """Replace the series with a copy of ``rows``, shape ``(t, …)``.

        The buffer gets the capacity that ``t`` appends would have
        grown, so a restored series holds what the original held.
        """
        if rows.ndim < 1:
            raise DataError("series rows need a slot axis")
        capacity = self.INITIAL_CAPACITY
        while capacity < len(rows):
            capacity *= 2
        self._buffer = np.empty(
            (capacity,) + rows.shape[1:], dtype=rows.dtype
        )
        self._buffer[: len(rows)] = rows
        self._length = len(rows)

    def clear(self) -> None:
        """Forget every slot and the slot shape (storage is released)."""
        self._buffer = None
        self._length = 0


__all__ = ["SlotRing", "SlotSeries"]
