"""The paper's transmission guarantees, on every trace of a small scope.

Each grid below enumerates every trace of ``T`` slots over ``L``
evenly spaced levels in [0, 1] — one node per trace, ``L**T`` nodes,
23,210 over the three grids — and runs the fleet through each built-in
slot kernel with :func:`~repro.simulation.collection.run_slot_kernel`.
The checks are the per-slot bounds that follow from Sec. V-A's argmin
(Eq. 7), not a comparison with another implementation, so they catch
a misreading that a kernel and its oracle would share.  With values in
[0, 1] and ``d = 1`` the penalty ``F(z, x) = (z - x)**2`` is at most
``F_max = 1``.

* adaptive: ``-B <= Q_t <= V_t * F_max + 1 - B`` after every slot,
  with ``V_t = V0 * (t + 1)**gamma`` from the paper's formula, and the
  messages sent so far equal ``B * t + Q_t`` up to rounding;
* uniform, from phase 0: the forced first send plus ``floor((T - 1) * B)``
  accumulator crossings, which lies in ``[floor(B*T), ceil(B*T)]``;
* deadband: ``F(z_t, x_t) <= delta**2`` after every slot;
* perfect: ``z_t = x_t``.

``test_slot_kernel_loop_matches_session`` (tests/test_session.py) pins
a session to this loop bit for bit, so one pass covers both.
"""

import numpy as np
import pytest

from repro.core.config import TransmissionConfig
from repro.registry import SLOT_KERNELS
from repro.simulation.collection import run_slot_kernel

#: (levels, slots) of each enumerated grid.
GRIDS = ((3, 8), (5, 6), (2, 10))
BUDGETS = (0.1, 0.25, 0.3, 0.5, 0.75, 1.0)
V0_GAMMAS = ((1.0, 0.65), (0.1, 0.9), (10.0, 0.3))
DEADBAND_DELTAS = (0.3, 0.5, 0.9)
DTYPES = ("float64", "float32")
F_MAX = 1.0


def _fleet(levels, slots, dtype):
    """Every trace of ``slots`` values on ``levels`` levels, ``(T, N)``."""
    digits = np.indices((levels,) * slots).reshape(slots, -1)
    return np.linspace(0.0, 1.0, levels)[digits].astype(dtype)


FLEETS = {
    dtype: [_fleet(levels, slots, dtype) for levels, slots in GRIDS]
    for dtype in DTYPES
}


def _rounding(dtype, scale):
    """Tolerance for ``scale``-sized values summed over at most 10 slots."""
    return 32 * np.finfo(dtype).eps * scale


def _run(policy, config, trace):
    """``run_slot_kernel`` over ``trace``, keeping the state after each slot."""
    states = []
    kernel = SLOT_KERNELS.create(policy, config)

    def recording(x, stored, observed, state, times):
        transmit = kernel(x, stored, observed, state, times)
        states.append(state.copy())
        return transmit

    result = run_slot_kernel(recording, trace)
    return result, np.array(states, dtype=np.float64)


def _adaptive_runs(dtype):
    for budget in BUDGETS:
        for v0, gamma in V0_GAMMAS:
            config = TransmissionConfig(budget=budget, v0=v0, gamma=gamma)
            for trace in FLEETS[dtype]:
                result, queues = _run("adaptive", config, trace)
                yield config, result, queues


@pytest.mark.parametrize("dtype", DTYPES)
def test_adaptive_queue_stays_within_its_bounds(dtype):
    for config, result, queues in _adaptive_runs(dtype):
        budget = config.budget
        slots = np.arange(len(queues), dtype=np.float64)[:, np.newaxis]
        v_t = config.v0 * (slots + 1.0) ** config.gamma
        upper = v_t * F_MAX + 1.0 - budget
        tolerance = _rounding(dtype, 1.0 + v_t)
        assert (queues >= -budget - tolerance).all(), config
        assert (queues <= upper + tolerance).all(), config


@pytest.mark.parametrize("dtype", DTYPES)
def test_adaptive_messages_are_budget_plus_queue(dtype):
    for config, result, queues in _adaptive_runs(dtype):
        elapsed = np.arange(1, len(queues) + 1, dtype=np.float64)
        messages = np.cumsum(result.decisions, axis=0)
        expected = config.budget * elapsed[:, np.newaxis] + queues
        np.testing.assert_allclose(
            messages, expected, rtol=0,
            atol=_rounding(dtype, len(queues)), err_msg=str(config),
        )


@pytest.mark.parametrize("dtype", DTYPES)
def test_uniform_sends_its_budget_from_phase_zero(dtype):
    for budget in BUDGETS:
        config = TransmissionConfig(budget=budget)
        for trace in FLEETS[dtype]:
            result, _ = _run("uniform", config, trace)
            slots = len(trace)
            sends = result.decisions.sum(axis=0)
            expected = 1 + int(np.floor((slots - 1) * budget))
            assert (sends == expected).all(), (budget, slots)
            assert (
                np.floor(budget * slots) <= expected <= np.ceil(budget * slots)
            )


@pytest.mark.parametrize("dtype", DTYPES)
def test_deadband_drift_stays_within_the_band(dtype):
    for delta in DEADBAND_DELTAS:
        config = TransmissionConfig(deadband_delta=delta)
        for trace in FLEETS[dtype]:
            result, _ = _run("deadband", config, trace)
            drift = (
                result.stored[:, :, 0].astype(np.float64)
                - trace.astype(np.float64)
            ) ** 2
            assert (drift <= delta**2).all(), (delta, len(trace))


@pytest.mark.parametrize("dtype", DTYPES)
def test_perfect_stores_every_value(dtype):
    for trace in FLEETS[dtype]:
        result, _ = _run("perfect", TransmissionConfig(), trace)
        np.testing.assert_array_equal(result.stored[:, :, 0], trace)
        assert result.decisions.all()
