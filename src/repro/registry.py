"""Named component registries: the pluggable-stage backbone.

The paper's system is a composition of swappable stages — transmission
policy, collection backend, dynamic-clustering similarity, per-cluster
forecasting model.  Each stage family has one :class:`Registry` here;
the concrete implementations self-register in the module that defines
them, so adding a backend never means editing the engine:

* :data:`FORECASTERS` — builders ``(config, cluster, group) ->
  Forecaster`` keyed by ``ForecastingConfig.model`` names
  (``"arima"``, ``"lstm"``, ``"sample_hold"``, …);
* :data:`FORECASTER_BANKS` — builders ``(config, num_clusters, dim) ->
  ForecasterBank`` vectorizing all of a group's per-cluster models at
  once (``"sample_hold"``, ``"mean"``, ``"ses"``, ``"ar"``); models
  without an entry fall back to the ``ObjectBank`` adapter;
* :data:`TRANSMISSION_POLICIES` — builders ``(transmission_config,
  node_id) -> TransmissionPolicy`` (``"adaptive"``, ``"uniform"``,
  ``"deadband"``, ``"perfect"``);
* :data:`SLOT_KERNELS` — builders ``(transmission_config) -> kernel``
  producing the vectorized one-slot form of a policy — the only way a
  streaming session decides its fleet's transmissions, one array call
  per slot;
* :data:`COLLECTION_BACKENDS` — callables ``(trace,
  transmission_config) -> CollectionResult`` (``"adaptive"``,
  ``"uniform"``, ``"perfect"``, ``"deadband"``);
* :data:`SIMILARITY_MEASURES` — :class:`~repro.clustering.similarity.
  SimilarityMeasure` instances (``"intersection"``, ``"jaccard"``).

Registries load lazily: the defining modules are imported on first
lookup, so importing :mod:`repro.registry` itself is dependency-free and
config validation can consult ``available()`` without import cycles.

Registering a new component from user code::

    from repro.registry import register_forecaster

    @register_forecaster("theta")
    def _build_theta(config, cluster, group):
        return ThetaForecaster(period=config.hw_period)

    ForecastingConfig(model="theta")   # now valid everywhere
"""

from __future__ import annotations

import difflib
import importlib
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

from repro.exceptions import ConfigurationError


def closest(name: str, candidates: Sequence[str]) -> str:
    """A ``did you mean …?`` hint for an unknown name (may be empty)."""
    matches = difflib.get_close_matches(str(name), list(candidates), n=3)
    if not matches:
        return ""
    return " (did you mean " + " or ".join(repr(m) for m in matches) + "?)"


class Registry:
    """A case-sensitive name → component registry for one stage family.

    Args:
        kind: Human-readable component kind (``"forecaster"``), used in
            error messages.
        modules: Module paths imported lazily before the first lookup —
            the modules whose import side effects populate the registry
            (components self-register where they are defined).
    """

    def __init__(self, kind: str, *, modules: Sequence[str] = ()) -> None:
        self.kind = kind
        self._modules = tuple(modules)
        self._loaded = False
        self._loading = False
        self._entries: Dict[str, Any] = {}

    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            # _loading guards re-entrancy: the defining modules may
            # themselves touch the registry (e.g. construct a config)
            # while importing.
            return
        self._loading = True
        try:
            for module in self._modules:
                importlib.import_module(module)
        finally:
            # On import failure the registry stays not-loaded, so the
            # next lookup retries and surfaces the real ImportError
            # instead of a misleading unknown-name error.
            self._loading = False
        self._loaded = True

    def register(
        self, name: str, obj: Any = None, *, override: bool = False
    ) -> Callable[[Any], Any]:
        """Register ``obj`` under ``name``; usable as a decorator.

        Args:
            name: Registry key (the user-facing component name).
            obj: The component (builder/instance).  Omit to use the
                returned callable as a decorator.
            override: Allow replacing an existing entry.  Without it,
                re-registering a *different* object under a taken name
                raises (re-registering the same object is a no-op, so
                module re-imports stay harmless).

        Returns:
            The registered object (decorator-friendly).
        """
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )

        def _add(target: Any) -> Any:
            current = self._entries.get(name)
            if current is not None and current is not target and not override:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered; pass "
                    f"override=True to replace it"
                )
            self._entries[name] = target
            return target

        if obj is None:
            return _add
        return _add(obj)

    def get(self, name: str) -> Any:
        """Look up a component, raising a friendly error when unknown."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(self.unknown_message(name)) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up a component and call it with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def available(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._entries))

    def unknown_message(self, name: str) -> str:
        """The error text for an unknown name, with close-match hints."""
        self._ensure_loaded()
        return (
            f"unknown {self.kind} {name!r}{closest(name, self._entries)}; "
            f"available: {', '.join(self.available())}"
        )

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, entries={list(self._entries)})"


#: ``ForecastingConfig.model`` name → builder ``(config, cluster, group)``.
FORECASTERS = Registry("forecaster", modules=("repro.forecasting",))

#: Bank name → builder ``(forecasting_config, num_clusters, dim)``
#: returning a :class:`~repro.forecasting.bank.ForecasterBank`.  Keyed
#: by the forecaster model names they accelerate; models without an
#: entry run through the :class:`~repro.forecasting.bank.ObjectBank`
#: adapter (see :func:`~repro.forecasting.bank.resolve_bank`).
FORECASTER_BANKS = Registry(
    "forecaster bank", modules=("repro.forecasting.bank",)
)

#: Policy name → builder ``(transmission_config, node_id)``.
TRANSMISSION_POLICIES = Registry(
    "transmission policy", modules=("repro.transmission",)
)

#: Policy name → builder ``(transmission_config) -> slot kernel``.  A
#: slot kernel is the whole-fleet vectorized form of one policy slot:
#: ``kernel(x, stored, observed, state, times) -> transmit`` evaluates
#: every active node's decision in one array operation (mutating the
#: per-node scalar ``state`` column in place), bit-identical to looping
#: the per-node policy objects.  It is the only transmission path of a
#: :class:`repro.session.StreamSession`: the names here are the
#: policies ``Engine(policy=...)`` accepts, and a custom policy is a
#: :func:`register_slot_kernel` registration whose whole per-node state
#: fits the ``state`` scalar and the ``times`` clock.
SLOT_KERNELS = Registry(
    "transmission policy slot kernel", modules=("repro.transmission",)
)

#: Collection backend name → ``(trace, transmission_config) -> CollectionResult``.
COLLECTION_BACKENDS = Registry(
    "collection backend",
    modules=("repro.simulation.collection", "repro.transmission.deadband"),
)

#: Similarity name → :class:`~repro.clustering.similarity.SimilarityMeasure`.
SIMILARITY_MEASURES = Registry(
    "similarity measure", modules=("repro.clustering.similarity",)
)

#: Scenario name → builder ``() -> ScenarioSpec`` (link model × churn
#: schedule × trace source), run by
#: :func:`repro.scenarios.harness.run_scenario`.
SCENARIOS = Registry("scenario", modules=("repro.scenarios.builtin",))


def register_forecaster(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a forecaster builder.

    The builder receives ``(config, cluster, group)`` — the full
    :class:`~repro.core.config.ForecastingConfig`, the cluster id and
    the resource-group index — and returns a fresh, unfitted forecaster.
    """
    return FORECASTERS.register(name, override=override)


def register_forecaster_bank(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a vectorized forecaster-bank builder.

    The builder receives ``(forecasting_config, num_clusters, dim)`` and
    returns a fresh :class:`~repro.forecasting.bank.ForecasterBank`
    covering all ``num_clusters × dim`` series of one resource group.
    Register under the forecaster model name the bank accelerates so
    ``ForecastingConfig(bank="auto")`` picks it up.
    """
    return FORECASTER_BANKS.register(name, override=override)


def register_transmission_policy(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a per-node transmission-policy builder.

    The builder receives ``(transmission_config, node_id)`` and returns
    a fresh :class:`~repro.transmission.base.TransmissionPolicy`.
    """
    return TRANSMISSION_POLICIES.register(name, override=override)


def register_slot_kernel(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a vectorized transmission slot kernel.

    The builder receives the ``transmission_config`` and returns a
    callable ``kernel(x, stored, observed, state, times) -> transmit``
    evaluating one slot's decisions for a batch of nodes at once:
    ``x``/``stored`` are ``(n, d)`` fresh/centrally-stored values,
    ``observed`` marks nodes past their forced first transmission,
    ``state`` is the per-node scalar policy accumulator (mutated in
    place — the :attr:`FleetState.policy_state
    <repro.simulation.fleet.FleetState.policy_state>` column), and
    ``times`` the per-node decision counts.  The name is the policy
    name sessions select with ``Engine(policy=name)``.
    """
    return SLOT_KERNELS.register(name, override=override)


def register_collection_backend(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a whole-trace collection backend.

    The backend receives ``(trace, transmission_config)`` and returns a
    :class:`~repro.simulation.collection.CollectionResult`.
    """
    return COLLECTION_BACKENDS.register(name, override=override)


def register_similarity(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a cluster-similarity measure."""
    return SIMILARITY_MEASURES.register(name, override=override)


def register_scenario(
    name: str, *, override: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a scenario builder.

    The builder takes no arguments and returns a fresh
    :class:`~repro.scenarios.spec.ScenarioSpec` (specs are cheap value
    objects; building per lookup keeps registered scenarios immutable).
    """
    return SCENARIOS.register(name, override=override)


__all__ = [
    "Registry",
    "closest",
    "FORECASTERS",
    "FORECASTER_BANKS",
    "TRANSMISSION_POLICIES",
    "SLOT_KERNELS",
    "COLLECTION_BACKENDS",
    "SIMILARITY_MEASURES",
    "SCENARIOS",
    "register_forecaster",
    "register_forecaster_bank",
    "register_transmission_policy",
    "register_slot_kernel",
    "register_collection_backend",
    "register_similarity",
    "register_scenario",
]
