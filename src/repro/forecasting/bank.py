"""Columnar model layer: one bank per resource group, not K·d objects.

The paper trains one forecaster per cluster centroid and re-forecasts
every slot.  With the fleet state already columnar, the model layer is
the remaining Python-loop cost: ``num_groups × num_clusters`` objects,
each fitted one scalar series at a time.  A :class:`ForecasterBank`
replaces the per-``(cluster, dim)`` objects of one resource group with
a single structure-of-arrays model:

* :meth:`ForecasterBank.fit` consumes the whole centroid tensor
  ``(T, M, d)`` — ``M`` clusters of a ``d``-dimensional group — at once;
* :meth:`ForecasterBank.update` advances the transient state with one
  ``(M, d)`` slot of centroids;
* :meth:`ForecasterBank.forecast` emits all ``H × M × d`` forecasts in
  one call.

Vectorized banks exist for the closed-form models — sample-and-hold,
long-term mean, exponential smoothing and Yule–Walker AR — built on the
batched kernels their scalar classes share
(:func:`~repro.forecasting.sample_hold.hold_forecast`,
:func:`~repro.forecasting.sample_hold.running_mean`,
:func:`~repro.forecasting.exponential.ewma_run`,
:func:`~repro.forecasting.yule_walker.fit_yule_walker_batch`,
:func:`~repro.forecasting.yule_walker.ar_forecast_batch`), so a bank is
bit-identical to a loop of scalar forecasters by construction.  Every
other model (ARIMA grid search, LSTM, user-registered forecasters)
keeps working through :class:`ObjectBank`, the generic adapter that
wraps one scalar forecaster per ``(cluster, dim)`` series.

Banks self-register in :data:`repro.registry.FORECASTER_BANKS` under
the model names they accelerate; :func:`resolve_bank` picks the
registered bank for ``ForecastingConfig.model`` and falls back to
:class:`ObjectBank` for everything else (``ForecastingConfig.bank``
overrides the choice explicitly).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.ring import SlotSeries
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DataError,
    NotFittedError,
    ReproError,
)
from repro.forecasting.exponential import ewma_run, fit_ses_alpha
from repro.forecasting.sample_hold import hold_forecast, running_mean
from repro.forecasting.yule_walker import (
    ar_forecast_batch,
    fit_yule_walker_batch,
)
from repro.registry import (
    FORECASTERS,
    FORECASTER_BANKS,
    register_forecaster_bank,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.config import ForecastingConfig

#: A forecaster factory receives ``(cluster_id, group_index)`` — the
#: persistent cluster id and the index of the resource group being
#: forecast (one group per resource under scalar clustering, a single
#: group 0 under joint clustering) — and returns a fresh, unfitted
#: forecaster.  This is the single factory contract consumed by
#: :class:`ObjectBank`.
ForecasterFactory = Callable[[int, int], object]


def default_forecaster_factory(config: "ForecastingConfig") -> ForecasterFactory:
    """Build the registry-backed factory implied by a ForecastingConfig.

    The returned factory receives ``(cluster, group)`` and delegates to
    the builder registered under ``config.model`` in
    :data:`repro.registry.FORECASTERS`.
    """

    def factory(cluster: int, group: int) -> object:
        return FORECASTERS.create(config.model, config, cluster, group)

    return factory


class BankForecastError(ReproError):
    """Some — not all — clusters of a bank failed to forecast.

    Raised by :class:`ObjectBank` (and any custom bank that can fail
    per cluster) so the pipeline can apply its hold-last-centroid
    fallback to exactly the failed clusters while keeping the others'
    forecasts.

    Attributes:
        forecasts: The ``(H, M, d)`` tensor with every non-failed
            cluster's forecasts filled in (failed clusters' slices are
            unspecified).
        failures: ``{cluster_id: exception}`` for each failed cluster.
    """

    def __init__(
        self, forecasts: np.ndarray, failures: Dict[int, ReproError]
    ) -> None:
        ids = ", ".join(str(j) for j in sorted(failures))
        super().__init__(f"forecast failed for cluster(s) {ids}")
        self.forecasts = forecasts
        self.failures = failures


class ForecasterBank(abc.ABC):
    """Batched forecaster over all ``(cluster, dim)`` series of a group.

    Subclasses implement ``_fit``/``_update``/``_forecast`` on the
    flattened ``(T, S)`` / ``(S,)`` / ``(H, S)`` views, where
    ``S = num_clusters * dim`` and series ``j * dim + r`` is dimension
    ``r`` of cluster ``j``'s centroid.

    Args:
        num_clusters: Number of clusters M (= series per dimension).
        dim: Dimensionality d of this group's centroids.

    Attributes:
        dtype: Floating dtype of the bank's series state (default
            float64).  Set by :func:`resolve_bank` from the pipeline's
            configured column dtype; every ``fit``/``update`` input,
            stored observation and forecast is cast to it.  Parameters
            the closed-form kernels compute in float64 (means, SES
            levels, AR coefficients) stay float64, live and restored.
    """

    def __init__(self, num_clusters: int, dim: int) -> None:
        if num_clusters < 1 or dim < 1:
            raise ConfigurationError(
                f"num_clusters and dim must be >= 1, got "
                f"({num_clusters}, {dim})"
            )
        self.num_clusters = num_clusters
        self.dim = dim
        self.dtype = np.dtype(np.float64)
        self._fitted = False

    @property
    def num_series(self) -> int:
        """Total independent series ``S = num_clusters * dim``."""
        return self.num_clusters * self.dim

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, series: np.ndarray) -> "ForecasterBank":
        """(Re)train every series' model on its full history at once.

        Args:
            series: Centroid tensor, shape ``(T, M, d)``.
        """
        tensor = np.asarray(series, dtype=self.dtype)
        if tensor.ndim != 3 or tensor.shape[1:] != (
            self.num_clusters,
            self.dim,
        ):
            raise DataError(
                f"series must be (T, {self.num_clusters}, {self.dim}), "
                f"got {tensor.shape}"
            )
        if tensor.shape[0] == 0:
            raise DataError("series is empty")
        if not np.isfinite(tensor).all():
            raise DataError("series contains NaN or infinite values")
        self._fit(tensor.reshape(tensor.shape[0], -1))
        self._fitted = True
        return self

    def update(self, values: np.ndarray) -> None:
        """Append one slot of centroids without refitting parameters.

        Args:
            values: Centroids of this slot, shape ``(M, d)``.
        """
        matrix = np.asarray(values, dtype=self.dtype)
        if matrix.shape != (self.num_clusters, self.dim):
            raise DataError(
                f"values must be ({self.num_clusters}, {self.dim}), "
                f"got {matrix.shape}"
            )
        if not np.isfinite(matrix).all():
            raise DataError("values contain NaN or infinite entries")
        self._update(matrix.reshape(-1))

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast every series ``horizon`` steps ahead.

        Returns:
            Tensor of shape ``(horizon, M, d)``.

        Raises:
            BankForecastError: When only some clusters fail (carries the
                partial forecasts).
        """
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__}.forecast called before fit"
            )
        if horizon < 1:
            raise DataError(f"horizon must be >= 1, got {horizon}")
        # The shared closed-form kernels compute in float64; cast back
        # to the bank's configured dtype (an exact no-op for float64).
        flat = np.asarray(self._forecast(horizon), dtype=self.dtype)
        return flat.reshape(horizon, self.num_clusters, self.dim)

    @abc.abstractmethod
    def _fit(self, matrix: np.ndarray) -> None:
        """Train on the flattened series matrix ``(T, S)``."""

    def _update(self, values: np.ndarray) -> None:
        """Advance transient state with one flattened slot ``(S,)``."""

    @abc.abstractmethod
    def _forecast(self, horizon: int) -> np.ndarray:
        """Forecast the flattened series, returning ``(horizon, S)``."""

    # -- checkpoint state contract --------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Serializable bank state (checkpoint contract).

        Returns a dict of JSON-able scalars / numpy arrays such that a
        freshly built bank of the same shape, after :meth:`set_state`,
        continues bit-identically — every future ``update``/``forecast``
        matches a bank that never stopped.  Subclasses contribute their
        model parameters via :meth:`_state`/:meth:`_load_state`.
        """
        return {"fitted": self._fitted, **self._state()}

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`get_state`."""
        self._fitted = bool(state["fitted"])
        self._load_state(state)

    def _state(self) -> Dict[str, object]:
        """Model parameters for :meth:`get_state` (subclass hook)."""
        return {}

    def _load_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`_state` output (subclass hook)."""


class SampleHoldBank(ForecasterBank):
    """All clusters' sample-and-hold forecasts in one array op."""

    def __init__(self, num_clusters: int, dim: int) -> None:
        super().__init__(num_clusters, dim)
        self._last: Optional[np.ndarray] = None

    def _fit(self, matrix: np.ndarray) -> None:
        self._last = matrix[-1].copy()

    def _update(self, values: np.ndarray) -> None:
        self._last = values.copy()

    def _forecast(self, horizon: int) -> np.ndarray:
        return hold_forecast(self._last, horizon)

    def _state(self) -> Dict[str, object]:
        return {"last": self._last}

    def _load_state(self, state: Dict[str, object]) -> None:
        last = state["last"]
        self._last = (
            None if last is None else np.asarray(last, dtype=self.dtype)
        )


class MeanBank(ForecasterBank):
    """Long-term mean of every series, recomputed over the full history
    on update — matching :class:`~repro.forecasting.sample_hold.
    MeanForecaster` exactly.  The history is one growing ``(t, S)``
    array in the bank dtype, so an update appends one row and reduces
    the array."""

    def __init__(self, num_clusters: int, dim: int) -> None:
        super().__init__(num_clusters, dim)
        self._rows = SlotSeries()
        self._mean: Optional[np.ndarray] = None

    def _fit(self, matrix: np.ndarray) -> None:
        self._rows.load(matrix)
        self._mean = running_mean(matrix)

    def _update(self, values: np.ndarray) -> None:
        self._rows.append(values)
        self._mean = running_mean(self._rows.view())

    def _forecast(self, horizon: int) -> np.ndarray:
        return hold_forecast(self._mean, horizon)

    def _state(self) -> Dict[str, object]:
        return {
            "rows": self._rows.copy() if self._rows else None,
            "mean": self._mean,
        }

    def _load_state(self, state: Dict[str, object]) -> None:
        rows = state["rows"]
        if rows is None:
            self._rows.clear()
        else:
            self._rows.load(np.asarray(rows, dtype=self.dtype))
        # The mean is computed in float64 whatever the bank dtype.
        mean = state["mean"]
        self._mean = None if mean is None else np.asarray(mean, dtype=float)


class ExponentialBank(ForecasterBank):
    """Simple exponential smoothing over all series in lockstep.

    The level recurrence and forecasts are fully batched
    (:func:`~repro.forecasting.exponential.ewma_run`); the per-series
    smoothing weight, when not fixed, is fitted by
    :func:`~repro.forecasting.exponential.fit_ses_alpha`, the bounded
    Brent minimizer that :class:`~repro.forecasting.exponential.
    SimpleExponentialSmoothing` uses too (no scipy) — one optimization
    per series, since each series has its own objective landscape.

    Args:
        alpha: Fixed smoothing weight in (0, 1]; fitted per series from
            data when None.
    """

    def __init__(
        self, num_clusters: int, dim: int, alpha: Optional[float] = None
    ) -> None:
        super().__init__(num_clusters, dim)
        if alpha is not None and not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self._fixed_alpha = alpha
        self._alpha: np.ndarray | float = (
            alpha if alpha is not None else 0.5
        )
        self._level: Optional[np.ndarray] = None

    @property
    def alpha(self) -> np.ndarray:
        """Smoothing weight per series, shape ``(S,)``."""
        return np.broadcast_to(
            np.asarray(self._alpha, dtype=float), (self.num_series,)
        ).copy()

    def _fit(self, matrix: np.ndarray) -> None:
        if self._fixed_alpha is None and matrix.shape[0] >= 3:
            self._alpha = np.asarray(
                [fit_ses_alpha(matrix[:, s]) for s in range(matrix.shape[1])],
                dtype=self.dtype,
            )
        self._level = ewma_run(matrix, self._alpha)

    def _update(self, values: np.ndarray) -> None:
        if self._fitted:
            self._level = (
                self._alpha * values + (1.0 - self._alpha) * self._level
            )

    def _forecast(self, horizon: int) -> np.ndarray:
        return hold_forecast(self._level, horizon)

    def _state(self) -> Dict[str, object]:
        return {
            "alpha": (
                self._alpha if isinstance(self._alpha, float)
                else np.asarray(self._alpha, dtype=float)
            ),
            "level": self._level,
        }

    def _load_state(self, state: Dict[str, object]) -> None:
        alpha = state["alpha"]
        self._alpha = (
            float(alpha) if np.ndim(alpha) == 0
            else np.asarray(alpha, dtype=self.dtype)
        )
        # The level recurrence runs in float64 (see MeanBank).
        level = state["level"]
        self._level = (
            None if level is None else np.asarray(level, dtype=float)
        )


class YuleWalkerBank(ForecasterBank):
    """Yule–Walker AR(p) over all series: one batched lag-matrix solve.

    Args:
        order: AR order p shared by every series.
    """

    def __init__(self, num_clusters: int, dim: int, order: int = 2) -> None:
        super().__init__(num_clusters, dim)
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.order = order
        self._coefficients: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._window: List[np.ndarray] = []

    @property
    def coefficients(self) -> np.ndarray:
        """AR coefficients per series, shape ``(order, S)``."""
        if self._coefficients is None:
            return np.zeros((self.order, self.num_series), dtype=self.dtype)
        return self._coefficients.copy()

    def _fit(self, matrix: np.ndarray) -> None:
        self._mean = running_mean(matrix)
        self._coefficients = fit_yule_walker_batch(matrix, self.order)
        self._window = [row.copy() for row in matrix[-self.order :]]

    def _update(self, values: np.ndarray) -> None:
        self._window.append(values.copy())
        del self._window[: -self.order]

    def _forecast(self, horizon: int) -> np.ndarray:
        if len(self._window) < self.order:
            raise DataError(
                f"need at least {self.order} observations to forecast"
            )
        return ar_forecast_batch(
            self._coefficients,
            self._mean,
            np.asarray(self._window[-self.order :], dtype=self.dtype),
            horizon,
        )

    def _state(self) -> Dict[str, object]:
        return {
            "coefficients": self._coefficients,
            "mean": self._mean,
            "window": np.stack(self._window) if self._window else None,
        }

    def _load_state(self, state: Dict[str, object]) -> None:
        # Coefficients and mean are fitted in float64 (see MeanBank);
        # only the observation window is held in the bank dtype.
        coefficients = state["coefficients"]
        self._coefficients = (
            None if coefficients is None
            else np.asarray(coefficients, dtype=float)
        )
        mean = state["mean"]
        self._mean = None if mean is None else np.asarray(mean, dtype=float)
        window = state["window"]
        self._window = (
            [] if window is None
            else [row.copy() for row in np.asarray(window, dtype=self.dtype)]
        )


class ObjectBank(ForecasterBank):
    """Generic adapter running one scalar forecaster per series.

    Keeps every model without a vectorized bank — ARIMA grid search,
    LSTM, Holt/Holt–Winters, user-registered forecasters — working
    behind the bank interface: ``dim > 1`` groups get one scalar
    forecaster per centroid dimension (what the deleted
    ``_MultivariateForecaster`` wrapper did, minus its late-binding
    factory hazard — every forecaster now comes from the one factory
    passed in).

    Args:
        factory: The :data:`ForecasterFactory` building one fresh
            forecaster per ``(cluster, group)`` call.
        num_clusters: Number of clusters M.
        dim: Centroid dimensionality d of this group.
        group: The resource-group index forwarded to the factory.
    """

    def __init__(
        self,
        factory: ForecasterFactory,
        num_clusters: int,
        dim: int,
        *,
        group: int = 0,
    ) -> None:
        super().__init__(num_clusters, dim)
        self._models: List[List[object]] = [
            [factory(j, group) for _ in range(dim)]
            for j in range(num_clusters)
        ]

    @property
    def models(self) -> List[List[object]]:
        """The wrapped forecasters, ``models[cluster][dim]``."""
        return [list(per_cluster) for per_cluster in self._models]

    def _fit(self, matrix: np.ndarray) -> None:
        # repro: noqa KER-003(ObjectBank is the per-object fallback path by contract)
        for j, per_cluster in enumerate(self._models):
            for r, model in enumerate(per_cluster):
                model.fit(matrix[:, j * self.dim + r])

    def _update(self, values: np.ndarray) -> None:
        # repro: noqa KER-003(ObjectBank is the per-object fallback path by contract)
        for j, per_cluster in enumerate(self._models):
            for r, model in enumerate(per_cluster):
                model.update(float(values[j * self.dim + r]))

    def _forecast(self, horizon: int) -> np.ndarray:
        out = np.zeros((horizon, self.num_series), dtype=float)
        failures: Dict[int, ReproError] = {}
        # repro: noqa KER-003(ObjectBank is the per-object fallback path by contract)
        for j, per_cluster in enumerate(self._models):
            try:
                for r, model in enumerate(per_cluster):
                    out[:, j * self.dim + r] = model.forecast(horizon)
            except ReproError as exc:
                failures[j] = exc
        if failures:
            raise BankForecastError(
                out.reshape(horizon, self.num_clusters, self.dim), failures
            )
        return out

    def _state(self) -> Dict[str, object]:
        # One state dict per wrapped forecaster, via the documented
        # Forecaster get_state/set_state protocol — custom models used
        # behind an ObjectBank must implement it to be checkpointable.
        states = []
        # repro: noqa KER-003(per-object state capture; ObjectBank wraps arbitrary models)
        for j, per_cluster in enumerate(self._models):
            row = []
            for r, model in enumerate(per_cluster):
                getter = getattr(model, "get_state", None)
                if getter is None:
                    raise CheckpointError(
                        f"forecaster {type(model).__name__} (cluster {j}, "
                        f"dim {r}) does not implement the "
                        "get_state/set_state checkpoint protocol; add "
                        "both methods to make it checkpointable (see "
                        "repro.forecasting.base.Forecaster.get_state)"
                    )
                row.append(getter())
            states.append(row)
        return {"models": states}

    def _load_state(self, state: Dict[str, object]) -> None:
        states = state["models"]
        if len(states) != self.num_clusters or any(
            len(row) != self.dim for row in states
        ):
            raise CheckpointError(
                f"object-bank state holds "
                f"{len(states)}x{len(states[0]) if states else 0} models, "
                f"bank has {self.num_clusters}x{self.dim}"
            )
        # repro: noqa KER-003(per-object state restore; ObjectBank wraps arbitrary models)
        for j, per_cluster in enumerate(self._models):
            for r, model in enumerate(per_cluster):
                setter = getattr(model, "set_state", None)
                if setter is None:
                    raise CheckpointError(
                        f"forecaster {type(model).__name__} (cluster {j}, "
                        f"dim {r}) does not implement the "
                        "get_state/set_state checkpoint protocol"
                    )
                setter(states[j][r])


@register_forecaster_bank("sample_hold")
def _build_sample_hold_bank(config, num_clusters: int, dim: int) -> SampleHoldBank:
    return SampleHoldBank(num_clusters, dim)


@register_forecaster_bank("mean")
def _build_mean_bank(config, num_clusters: int, dim: int) -> MeanBank:
    return MeanBank(num_clusters, dim)


@register_forecaster_bank("ses")
def _build_ses_bank(config, num_clusters: int, dim: int) -> ExponentialBank:
    return ExponentialBank(num_clusters, dim)


@register_forecaster_bank("ar")
def _build_ar_bank(config, num_clusters: int, dim: int) -> YuleWalkerBank:
    return YuleWalkerBank(num_clusters, dim, order=config.ar_order)


def resolved_bank_name(config: "ForecastingConfig") -> str:
    """The bank a config resolves to: a registered name or ``"object"``.

    ``config.bank == "auto"`` picks the bank registered under
    ``config.model`` in :data:`repro.registry.FORECASTER_BANKS` when one
    exists, the :class:`ObjectBank` adapter otherwise; any other value
    of ``config.bank`` is taken literally.
    """
    choice = getattr(config, "bank", "auto")
    if choice == "auto":
        return config.model if config.model in FORECASTER_BANKS else "object"
    return choice


def resolve_bank(
    config: "ForecastingConfig",
    *,
    num_clusters: int,
    dim: int,
    group: int = 0,
    factory: Optional[ForecasterFactory] = None,
    dtype: "np.typing.DTypeLike" = np.float64,
) -> ForecasterBank:
    """Build the forecaster bank of one resource group.

    Args:
        config: The forecasting configuration (``model``, ``bank`` and
            model hyperparameters).
        num_clusters: Number of clusters M.
        dim: Centroid dimensionality d of the group.
        group: The group index (forwarded to object factories).
        factory: Custom :data:`ForecasterFactory` override — runs
            behind :class:`ObjectBank`, since a vectorized bank cannot
            represent arbitrary user models.  Combining it with a
            config that *requires* the vectorized path
            (``config.bank == config.model``) is a contradiction and
            raises instead of silently falling back.
        dtype: Floating dtype of the bank's series state (the
            pipeline's configured column dtype; default float64).
    """
    if factory is not None:
        if getattr(config, "bank", "auto") not in ("auto", "object"):
            raise ConfigurationError(
                f"bank {config.bank!r} requires the vectorized path, "
                "which a custom forecaster_factory cannot provide; "
                "drop the factory or use bank='auto'/'object'"
            )
        bank: ForecasterBank = ObjectBank(
            factory, num_clusters, dim, group=group
        )
    else:
        name = resolved_bank_name(config)
        if name == "object":
            bank = ObjectBank(
                default_forecaster_factory(config),
                num_clusters,
                dim,
                group=group,
            )
        else:
            bank = FORECASTER_BANKS.create(name, config, num_clusters, dim)
    bank.dtype = np.dtype(dtype)
    return bank


__all__ = [
    "BankForecastError",
    "ExponentialBank",
    "ForecasterBank",
    "ForecasterFactory",
    "MeanBank",
    "ObjectBank",
    "SampleHoldBank",
    "YuleWalkerBank",
    "default_forecaster_factory",
    "resolve_bank",
    "resolved_bank_name",
]
