"""Configuration dataclasses with the paper's default parameters.

Defaults follow Sec. VI-A2 of the paper: transmission budget ``B = 0.3``,
Lyapunov control parameters ``V0 = 1e-12`` and ``γ = 0.65``, ``K = 3``
clusters, similarity look-back ``M = 1``, forecasting look-back
``M' = 5``, scalar (per-resource-type) clustering, initial data-collection
phase of 1000 steps, and model retraining every 288 steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.registry import (
    FORECASTERS,
    FORECASTER_BANKS,
    SIMILARITY_MEASURES,
    closest,
)


@dataclass(frozen=True)
class TransmissionConfig:
    """Parameters of the adaptive transmission algorithm (Sec. V-A).

    Attributes:
        budget: Maximum long-run transmission frequency ``B`` in (0, 1].
        v0: Initial trade-off weight ``V0`` in ``V_t = V0 * (t+1)**gamma``.
            The paper states ``V0 = 1e-12``, but on measurements
            normalized to [0, 1] that makes the penalty term ``V_t·F``
            (≤ ~1e-9) unable to ever compete with the queue term (quantum
            ``B``), degenerating the policy to periodic transmission.  We
            default to ``V0 = 1.0``, calibrated so the drift/penalty
            trade-off is active at this data scale while the empirical
            frequency still tracks ``B`` tightly (see DESIGN.md §3).
        gamma: Growth exponent ``γ`` in (0, 1) (paper: 0.65).
        deadband_delta: Half-width δ of the deadband (send-on-delta)
            baseline policy/backend — only consumed when the
            ``"deadband"`` registry entries are selected.
    """

    budget: float = 0.3
    v0: float = 1.0
    gamma: float = 0.65
    deadband_delta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ConfigurationError(f"budget must be in (0, 1], got {self.budget}")
        if self.v0 <= 0:
            raise ConfigurationError(f"v0 must be positive, got {self.v0}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.deadband_delta <= 0:
            raise ConfigurationError(
                f"deadband_delta must be positive, got {self.deadband_delta}"
            )


@dataclass(frozen=True)
class ClusteringConfig:
    """Parameters of the dynamic clustering algorithm (Sec. V-B).

    Attributes:
        num_clusters: Number of clusters ``K`` (= number of forecast models).
        history_depth: Look-back ``M`` in the similarity measure (Eq. 10).
        similarity: Any name registered in
            :data:`repro.registry.SIMILARITY_MEASURES` —
            ``"intersection"`` for the paper's measure (Eq. 10),
            ``"jaccard"`` for the normalized alternative (Fig. 11).
        scalar_per_resource: If True, cluster each resource type
            independently on scalar values (Table I's winner); if False,
            cluster the full d-dimensional vectors jointly.
        kmeans_restarts: Number of k-means++ restarts per step.
        warm_start: Seed each slot's K-means with the previous slot's
            centroids (see :class:`~repro.clustering.dynamic.
            DynamicClusterTracker`).  A large speedup for long-lived
            streaming sessions on slowly drifting fleets — Lloyd
            converges in a couple of iterations instead of starting
            from scratch every slot.  The paper does not specify this;
            default off (it changes the K-means trajectory, so enable
            it deliberately).
        seed: Seed for the clustering RNG.
    """

    num_clusters: int = 3
    history_depth: int = 1
    similarity: str = "intersection"
    scalar_per_resource: bool = True
    kmeans_restarts: int = 3
    warm_start: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigurationError(
                f"num_clusters must be >= 1, got {self.num_clusters}"
            )
        if self.history_depth < 1:
            raise ConfigurationError(
                f"history_depth (M) must be >= 1, got {self.history_depth}"
            )
        if self.similarity not in SIMILARITY_MEASURES:
            raise ConfigurationError(
                SIMILARITY_MEASURES.unknown_message(self.similarity)
            )
        if self.kmeans_restarts < 1:
            raise ConfigurationError(
                f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}"
            )


@dataclass(frozen=True)
class ForecastingConfig:
    """Parameters of the temporal forecasting stage (Sec. V-C, VI-A3).

    Attributes:
        model: Any name in :data:`repro.registry.FORECASTER_BANKS`
            (``"sample_hold"``, ``"mean"``, ``"ses"``, ``"ar"``: one
            vectorized bank per group) or :data:`repro.registry.
            FORECASTERS` (``"arima"``, ``"lstm"``, ``"holt"``,
            ``"holt_winters"``: one forecaster per series).  The paper
            evaluates sample-and-hold, ARIMA and LSTM; the rest are the
            "etc." of Sec. V-C.
        membership_lookback: Look-back ``M'`` for forecasting cluster
            membership and computing per-node offsets (Eq. 12).
        initial_collection: Number of initial steps with no forecasting
            model (paper: 1000).
        retrain_interval: Steps between model retrainings (paper: 288).
        max_horizon: Largest forecasting step ``H``.
        arima_max_p, arima_max_d, arima_max_q: Non-seasonal grid bounds.
        arima_max_P, arima_max_D, arima_max_Q: Seasonal grid bounds.
        arima_seasonal_period: Season length ``s`` (0 disables the seasonal
            component entirely).
        lstm_hidden: Hidden units per LSTM layer.
        lstm_lookback: Input window length for the LSTM.
        lstm_epochs: Training epochs per (re)training.
        hw_period: Season length for the Holt–Winters model.
        ar_order: Order p for the Yule–Walker AR model.
        seed: Seed for stochastic models (LSTM initialization).
    """

    model: str = "sample_hold"
    membership_lookback: int = 5
    initial_collection: int = 1000
    retrain_interval: int = 288
    max_horizon: int = 5
    arima_max_p: int = 5
    arima_max_d: int = 2
    arima_max_q: int = 5
    arima_max_P: int = 2
    arima_max_D: int = 1
    arima_max_Q: int = 2
    arima_seasonal_period: int = 0
    lstm_hidden: int = 32
    lstm_lookback: int = 16
    lstm_epochs: int = 20
    hw_period: int = 288
    ar_order: int = 2
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        names = FORECASTERS.available() + FORECASTER_BANKS.available()
        if self.model not in names:
            raise ConfigurationError(
                f"unknown forecaster {self.model!r}"
                f"{closest(self.model, names)}; available: "
                f"{', '.join(sorted(names))}"
            )
        if self.membership_lookback < 1:
            raise ConfigurationError(
                f"membership_lookback (M') must be >= 1, got "
                f"{self.membership_lookback}"
            )
        if self.initial_collection < 1:
            raise ConfigurationError(
                "initial_collection must be >= 1, got "
                f"{self.initial_collection}"
            )
        if self.retrain_interval < 1:
            raise ConfigurationError(
                f"retrain_interval must be >= 1, got {self.retrain_interval}"
            )
        if self.max_horizon < 1:
            raise ConfigurationError(
                f"max_horizon must be >= 1, got {self.max_horizon}"
            )
        for name in (
            "arima_max_p",
            "arima_max_d",
            "arima_max_q",
            "arima_max_P",
            "arima_max_D",
            "arima_max_Q",
            "arima_seasonal_period",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.lstm_hidden < 1 or self.lstm_lookback < 1 or self.lstm_epochs < 1:
            raise ConfigurationError("LSTM parameters must be >= 1")
        if self.hw_period < 2:
            raise ConfigurationError("hw_period must be >= 2")
        if self.ar_order < 1:
            raise ConfigurationError("ar_order must be >= 1")


def _without_removed_options(
    section: str, mapping: Mapping
) -> Dict[str, Any]:
    """``mapping`` without ``forecasting.bank`` and ``clustering.window``,
    which configs written before 5.2.0 carry.  A value naming what runs
    today is dropped: ``bank`` set to ``"auto"`` or to the model's path
    (its name when it has a vectorized bank, ``"object"`` otherwise),
    and ``window`` set to 1.  Any other asks for a run that no longer
    exists, so it raises."""
    options = dict(mapping)
    if section == "forecasting" and "bank" in options:
        model = options.get("model", ForecastingConfig.model)
        runs = model if model in FORECASTER_BANKS.available() else "object"
        bank = options.pop("bank")
        if bank not in ("auto", runs):
            raise ConfigurationError(
                f"forecasting option bank={bank!r} was removed: model "
                f"{model!r} runs through the {runs!r} bank; to run other "
                "forecasters, pass them as Engine(forecaster_factory=...)"
            )
    if section == "clustering" and "window" in options:
        window = options.pop("window")
        if window != 1:
            raise ConfigurationError(
                f"clustering option window={window!r} was removed: no "
                "stage read it, so it never took effect"
            )
    return options


def _section_from_mapping(cls: type, mapping: Mapping, section: str) -> Any:
    """Build one stage config from a mapping, rejecting unknown keys."""
    if not isinstance(mapping, Mapping):
        raise ConfigurationError(
            f"{section!r} section must be a mapping, got "
            f"{type(mapping).__name__}"
        )
    options = _without_removed_options(section, mapping)
    allowed = {f.name for f in fields(cls)}
    for key in options:
        if key not in allowed:
            raise ConfigurationError(
                f"unknown {section} option {key!r}"
                f"{closest(key, allowed)}"
            )
    return cls(**options)


#: Column dtypes a pipeline can run with.  float64 is the default and
#: the bit-identity-pinned reference; float32 halves the fleet's memory
#: footprint (the N=1M regime) at tolerance-level equivalence.
SUPPORTED_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level configuration bundling the three stages.

    Attributes:
        dtype: Floating-point dtype of every fleet column, slot-kernel
            working array and forecaster-bank state — ``"float64"``
            (default, bit-identity reference) or ``"float32"`` (half the
            memory; results pinned to float64 at tolerance, not
            bit-identity).  Recorded in checkpoint manifests; resuming a
            checkpoint under a different dtype raises
            :class:`~repro.exceptions.CheckpointError`.
    """

    transmission: TransmissionConfig = field(default_factory=TransmissionConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    forecasting: ForecastingConfig = field(default_factory=ForecastingConfig)
    dtype: str = "float64"

    #: Stage section name → config class (the to_dict/from_dict schema).
    _SECTIONS = (
        ("transmission", TransmissionConfig),
        ("clustering", ClusteringConfig),
        ("forecasting", ForecastingConfig),
    )

    def __post_init__(self) -> None:
        if self.dtype not in SUPPORTED_DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {', '.join(SUPPORTED_DTYPES)}, "
                f"got {self.dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The configured column dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; round-trips through :meth:`from_dict`."""
        out: Dict[str, Any] = {
            name: asdict(getattr(self, name)) for name, _ in self._SECTIONS
        }
        out["dtype"] = self.dtype
        return out

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "PipelineConfig":
        """Rebuild a config from :meth:`to_dict` output (e.g. JSON).

        Missing sections/options fall back to their defaults; unknown
        names raise :class:`~repro.exceptions.ConfigurationError` with a
        close-match suggestion.  The options removed in 5.2.0 load only
        with a value that describes what runs today (see
        :func:`_without_removed_options`).
        """
        if not isinstance(mapping, Mapping):
            raise ConfigurationError(
                f"config must be a mapping, got {type(mapping).__name__}"
            )
        known = {name for name, _ in cls._SECTIONS} | {"dtype"}
        for key in mapping:
            if key not in known:
                raise ConfigurationError(
                    f"unknown config section {key!r}{closest(key, known)}; "
                    f"expected: {', '.join(sorted(known))}"
                )
        dtype = mapping.get("dtype", "float64")
        if not isinstance(dtype, str):
            raise ConfigurationError(
                f"dtype must be a string, got {type(dtype).__name__}"
            )
        return cls(
            dtype=dtype,
            **{
                name: _section_from_mapping(
                    section_cls, mapping.get(name, {}), name
                )
                for name, section_cls in cls._SECTIONS
            },
        )

    @staticmethod
    def paper_defaults() -> "PipelineConfig":
        """The exact default parameterization of Sec. VI-A2."""
        return PipelineConfig()

    @staticmethod
    def small(
        num_clusters: int = 3,
        budget: float = 0.3,
        max_horizon: int = 5,
        initial_collection: int = 50,
        retrain_interval: int = 50,
        dtype: str = "float64",
    ) -> "PipelineConfig":
        """A scaled-down configuration suitable for tests and CI benches."""
        return PipelineConfig(
            transmission=TransmissionConfig(budget=budget),
            clustering=ClusteringConfig(num_clusters=num_clusters, seed=0),
            forecasting=ForecastingConfig(
                max_horizon=max_horizon,
                initial_collection=initial_collection,
                retrain_interval=retrain_interval,
                seed=0,
            ),
            dtype=dtype,
        )
