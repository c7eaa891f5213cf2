"""Runtime contract verification: ``python -m repro_lint --runtime``.

Static rules prove the checkpoint methods exist and their literal keys
agree; they cannot prove the state actually round-trips.  The runtime
verifier closes that gap by importing every component registry and
driving each registered component through the contract its docstring
promises:

* ``RT-001`` — ``get_state`` → ``set_state`` (on a *freshly built*
  instance) → ``get_state`` reproduces the state bit-identically;
* ``RT-002`` — ``get_state`` output is checkpoint-serializable
  (:func:`repro.checkpoint.encode_state` accepts it);
* ``RT-003`` — the restored component *continues* identically: the
  same subsequent updates/forecasts/decisions produce the same outputs
  as the instance that never stopped.  Stateless components (slot
  kernels, collection backends) are checked for buildability and
  replay determinism instead.

Every component is driven with tiny deterministic inputs, so the whole
sweep runs in seconds and belongs in CI next to the static pass.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule


class RuntimeRule(LintRule):
    """Base for rules that need live components (``--runtime``)."""

    scope = "runtime"


class StateRoundTripRule(RuntimeRule):
    rule_id = "RT-001"
    family = "runtime"
    description = (
        "get_state -> set_state on a fresh instance -> get_state must "
        "reproduce the state bit-identically"
    )


class StateSerializableRule(RuntimeRule):
    rule_id = "RT-002"
    family = "runtime"
    description = (
        "get_state output must be checkpoint-serializable (JSON-able "
        "scalars, dicts, lists and numpy arrays)"
    )


class RestoredContinuationRule(RuntimeRule):
    rule_id = "RT-003"
    family = "runtime"
    description = (
        "a restored component must continue bit-identically to one "
        "that never stopped (and stateless components must replay "
        "deterministically)"
    )


register_lint_rule(StateRoundTripRule())
register_lint_rule(StateSerializableRule())
register_lint_rule(RestoredContinuationRule())


def _finding(coordinate: str, rule_id: str, message: str) -> Finding:
    return Finding(path=coordinate, line=0, rule_id=rule_id, message=message)


def _check_stateful(
    coordinate: str,
    build: Callable[[], Any],
    warmup: Callable[[Any], None],
    probe: Callable[[Any], Any],
) -> List[Finding]:
    """Drive one stateful component through RT-001/002/003."""
    from repro.checkpoint import encode_state, state_equal
    from repro.exceptions import CheckpointError

    findings: List[Finding] = []
    try:
        original = build()
        warmup(original)
        state = original.get_state()
    except Exception as exc:
        return [
            _finding(
                coordinate,
                "RT-001",
                f"failed to build/drive the component: {exc!r}",
            )
        ]
    try:
        encode_state(state)
    except CheckpointError as exc:
        findings.append(_finding(coordinate, "RT-002", str(exc)))
    try:
        restored = build()
        restored.set_state(state)
        second = restored.get_state()
    except Exception as exc:
        findings.append(
            _finding(
                coordinate,
                "RT-001",
                f"set_state/get_state failed on a fresh instance: {exc!r}",
            )
        )
        return findings
    if not state_equal(state, second):
        findings.append(
            _finding(
                coordinate,
                "RT-001",
                "get_state -> set_state -> get_state did not round-trip "
                "bit-identically",
            )
        )
    try:
        continued = probe(original)
        resumed = probe(restored)
    except Exception as exc:
        findings.append(
            _finding(
                coordinate,
                "RT-003",
                f"probing the restored component failed: {exc!r}",
            )
        )
        return findings
    if not state_equal(continued, resumed):
        findings.append(
            _finding(
                coordinate,
                "RT-003",
                "the restored component diverged from the instance that "
                "never stopped on identical subsequent inputs",
            )
        )
    return findings


def _forecaster_config(name: str) -> Any:
    """A tiny, fully deterministic config for the named forecaster."""
    from repro.core.config import ForecastingConfig

    return ForecastingConfig(
        model=name,
        max_horizon=3,
        arima_max_p=1,
        arima_max_d=1,
        arima_max_q=1,
        lstm_hidden=3,
        lstm_lookback=4,
        lstm_epochs=1,
        hw_period=4,
        ar_order=2,
        seed=0,
    )


def _series(length: int) -> Any:
    import numpy as np

    steps = np.arange(length, dtype=float)
    return 0.5 + 0.3 * np.sin(steps / 2.0) + 0.01 * steps


def _trace() -> Any:
    import numpy as np

    steps = np.arange(8 * 3 * 2, dtype=float).reshape(8, 3, 2)
    return 0.5 + 0.4 * np.sin(steps / 5.0)


def _check_forecasters() -> List[Finding]:
    import numpy as np

    from repro.registry import FORECASTERS

    findings: List[Finding] = []
    series = _series(30)
    for name in FORECASTERS.available():
        config = _forecaster_config(name)

        def build(name: str = name, config: Any = config) -> Any:
            return FORECASTERS.create(name, config, 0, 0)

        def warmup(model: Any) -> None:
            model.fit(series)
            model.update(0.55)

        def probe(model: Any) -> Any:
            model.update(0.6)
            return np.asarray(model.forecast(3), dtype=float)

        findings.extend(
            _check_stateful(f"forecaster '{name}'", build, warmup, probe)
        )
    return findings


def _check_banks() -> List[Finding]:
    import numpy as np

    from repro.registry import FORECASTER_BANKS

    findings: List[Finding] = []
    tensor = _series(30 * 2).reshape(30, 2, 1)
    slot = np.asarray([[0.55], [0.45]], dtype=float)
    for name in FORECASTER_BANKS.available():
        config = _forecaster_config(name)

        def build(name: str = name, config: Any = config) -> Any:
            return FORECASTER_BANKS.create(name, config, 2, 1)

        def warmup(bank: Any) -> None:
            bank.fit(tensor)
            bank.update(slot)

        def probe(bank: Any) -> Any:
            bank.update(slot * 1.1)
            return np.asarray(bank.forecast(3), dtype=float)

        findings.extend(
            _check_stateful(f"forecaster bank '{name}'", build, warmup, probe)
        )
    return findings


def _check_slot_kernels() -> List[Finding]:
    from repro.core.config import TransmissionConfig
    from repro.registry import SLOT_KERNELS

    findings: List[Finding] = []
    for name in SLOT_KERNELS.available():
        coordinate = f"slot kernel '{name}'"
        try:
            kernel = SLOT_KERNELS.create(name, TransmissionConfig())
        except Exception as exc:
            findings.append(
                _finding(
                    coordinate,
                    "RT-001",
                    f"kernel builder failed: {exc!r}",
                )
            )
            continue
        if not callable(kernel):
            findings.append(
                _finding(
                    coordinate,
                    "RT-001",
                    f"kernel builder returned non-callable "
                    f"{type(kernel).__name__}",
                )
            )
    return findings


def _check_collection_backends() -> List[Finding]:
    from repro.checkpoint import state_equal
    from repro.core.config import TransmissionConfig
    from repro.registry import COLLECTION_BACKENDS

    findings: List[Finding] = []
    trace = _trace()
    config = TransmissionConfig()
    for name in COLLECTION_BACKENDS.available():
        coordinate = f"collection backend '{name}'"
        try:
            first = COLLECTION_BACKENDS.create(name, trace.copy(), config)
            second = COLLECTION_BACKENDS.create(name, trace.copy(), config)
        except Exception as exc:
            findings.append(
                _finding(coordinate, "RT-001", f"backend failed: {exc!r}")
            )
            continue
        if not (
            state_equal(first.stored, second.stored)
            and state_equal(
                first.decisions.astype(int), second.decisions.astype(int)
            )
        ):
            findings.append(
                _finding(
                    coordinate,
                    "RT-003",
                    "two runs over the same trace and config diverged; "
                    "collection backends must replay deterministically",
                )
            )
    return findings


def _check_similarity_measures() -> List[Finding]:
    from repro.registry import SIMILARITY_MEASURES

    findings: List[Finding] = []
    for name in SIMILARITY_MEASURES.available():
        try:
            SIMILARITY_MEASURES.get(name)
        except Exception as exc:  # pragma: no cover - import-time failure
            findings.append(
                _finding(
                    f"similarity measure '{name}'",
                    "RT-001",
                    f"registry lookup failed: {exc!r}",
                )
            )
    return findings


def run_runtime_checks() -> List[Finding]:
    """Drive every registered component through the runtime contracts.

    Returns:
        One :class:`Finding` per violated contract, sorted by component
        coordinate — empty when every registered component honours its
        checkpoint and determinism contracts.
    """
    findings: List[Finding] = []
    findings.extend(_check_forecasters())
    findings.extend(_check_banks())
    findings.extend(_check_slot_kernels())
    findings.extend(_check_collection_backends())
    findings.extend(_check_similarity_measures())
    return sorted(findings, key=lambda f: f.sort_key())


__all__ = [
    "RestoredContinuationRule",
    "RuntimeRule",
    "StateRoundTripRule",
    "StateSerializableRule",
    "run_runtime_checks",
]
