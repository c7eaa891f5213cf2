"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything raised by this package with a single
``except`` clause while still being able to handle specific failure
modes individually.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent combination of parameters."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before ``fit``."""


class DataError(ReproError):
    """Input data is malformed (wrong shape, NaNs, empty series, ...)."""


class SimulationError(ReproError):
    """The simulation loop reached an inconsistent internal state."""


class CheckpointError(ReproError):
    """A checkpoint artifact cannot be written, read, or applied.

    Covers unserializable component state, corrupt or truncated
    artifacts, format-version mismatches, and resuming against an
    engine whose configuration contradicts the checkpoint's.
    """
