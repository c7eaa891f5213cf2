"""Tests for transmission policies (Sec. V-A) and their budget behavior.

The per-node oracle policies pin the paper's decision rules; the
``TestSlotKernelEdgeCases`` class pins the same boundary cases on the
slot kernels the package runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collection_oracle import (
    AdaptiveTransmissionPolicy,
    UniformTransmissionPolicy,
)
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.session import StreamSession
from repro.transmission import (
    adaptive_transmit_slot,
    deadband_transmit_slot,
    uniform_transmit_slot,
)


class TestAdaptivePolicy:
    def test_transmits_on_large_error_with_credit(self):
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.5))
        # Build credit with a few identical observations.
        same = np.array([0.5])
        for _ in range(5):
            policy.decide(same, same)
        assert policy.decide(np.array([0.9]), np.array([0.5]))

    def test_constant_data_frequency_tracks_budget(self):
        # The literal Eq. 7 argmin transmits whenever the queue goes
        # negative, even with zero change — so on constant data the
        # frequency still converges to B (never above it).
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.3))
        same = np.array([0.4])
        for _ in range(300):
            policy.decide(same, same)
        assert policy.empirical_frequency <= 0.3 + 1e-9
        assert policy.empirical_frequency == pytest.approx(0.3, abs=0.02)

    def test_skips_on_tie_at_zero_queue(self):
        # Q = 0 and F = 0: both objectives are 0; the tie breaks to
        # "don't transmit".
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.3))
        same = np.array([0.4])
        assert policy.decide(same, same) is False

    def test_frequency_converges_to_budget(self):
        rng = np.random.default_rng(0)
        config = TransmissionConfig(budget=0.3)
        policy = AdaptiveTransmissionPolicy(config)
        stored = np.array([0.5])
        for _ in range(2000):
            current = np.clip(stored + rng.normal(0, 0.05, 1), 0, 1)
            if policy.decide(current, stored):
                stored = current
        assert policy.empirical_frequency == pytest.approx(0.3, abs=0.01)

    @given(st.floats(0.05, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_budget_respected_for_any_b(self, budget):
        rng = np.random.default_rng(1)
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=budget))
        stored = np.array([0.5])
        for _ in range(1500):
            current = np.clip(stored + rng.normal(0, 0.05, 1), 0, 1)
            if policy.decide(current, stored):
                stored = current
        assert policy.empirical_frequency <= budget + 0.03

    def test_penalty_definition(self):
        policy = AdaptiveTransmissionPolicy()
        # F = (1/d)||z - x||^2 with d = 2.
        value = policy.penalty(np.array([0.2, 0.4]), np.array([0.4, 0.8]))
        assert value == pytest.approx((0.04 + 0.16) / 2)

    def test_first_transmission_charges_queue(self):
        config = TransmissionConfig(budget=0.3)
        policy = AdaptiveTransmissionPolicy(config)
        policy.first_transmission()
        assert policy.queue_length == pytest.approx(0.7)
        assert policy.decisions.tolist() == [1]

    def test_credit_enables_bursts(self):
        # After a long quiet period the policy should transmit several
        # slots in a row when the signal changes rapidly.
        policy = AdaptiveTransmissionPolicy(TransmissionConfig(budget=0.2))
        same = np.array([0.5])
        for _ in range(50):
            policy.decide(same, same)
        stored = same
        burst_decisions = []
        for step in range(5):
            current = np.array([0.5 + 0.1 * (step + 1)])
            transmitted = policy.decide(current, stored)
            burst_decisions.append(transmitted)
            if transmitted:
                stored = current
        # At budget 0.2, five slots nominally allow one transmission;
        # the banked credit plus the penalty term should deliver more.
        assert sum(burst_decisions) >= 2


class TestUniformPolicy:
    def test_exact_frequency_integer_period(self):
        policy = UniformTransmissionPolicy(0.25)
        x = np.array([0.0])
        decisions = [policy.decide(x, x) for _ in range(100)]
        assert sum(decisions) == 25

    def test_error_diffusion_non_integer_period(self):
        policy = UniformTransmissionPolicy(0.3)
        x = np.array([0.0])
        decisions = [policy.decide(x, x) for _ in range(1000)]
        assert sum(decisions) == pytest.approx(300, abs=1)

    def test_oblivious_to_data(self):
        policy_a = UniformTransmissionPolicy(0.5)
        policy_b = UniformTransmissionPolicy(0.5)
        x = np.array([0.0])
        y = np.array([1.0])
        d_a = [policy_a.decide(x, x) for _ in range(20)]
        d_b = [policy_b.decide(y, x) for _ in range(20)]
        assert d_a == d_b

    def test_phase_staggers(self):
        p0 = UniformTransmissionPolicy(0.5, phase=0.0)
        p1 = UniformTransmissionPolicy(0.5, phase=0.5)
        x = np.array([0.0])
        d0 = [p0.decide(x, x) for _ in range(4)]
        d1 = [p1.decide(x, x) for _ in range(4)]
        assert d0 != d1

    def test_budget_one_transmits_always(self):
        policy = UniformTransmissionPolicy(1.0)
        x = np.array([0.0])
        assert all(policy.decide(x, x) for _ in range(10))


class TestSlotKernelEdgeCases:
    """Ties and exact boundaries, on the kernels themselves."""

    def test_adaptive_skips_on_tie_at_zero_queue(self):
        # Q = 0 and F = 0: both objectives are 0, and the tie stays
        # silent while still charging the budget's drift.
        x = np.array([[0.4]])
        queues = np.zeros(1)
        transmit = adaptive_transmit_slot(
            x, x.copy(), np.ones(1, dtype=bool), queues, 0, 0.3, 1.0, 0.0
        )
        assert not transmit[0]
        assert queues[0] == -0.3

    def test_uniform_sends_exactly_every_fourth_slot(self):
        # B = 0.25 is binary-exact: the accumulator reaches exactly 1.0
        # on every 4th slot, and reaching it is a crossing.
        observed = np.ones(1, dtype=bool)
        accumulators = np.zeros(1)
        sent = [
            bool(uniform_transmit_slot(observed, accumulators, 0.25)[0])
            for _ in range(100)
        ]
        np.testing.assert_array_equal(
            np.flatnonzero(sent), np.arange(3, 100, 4)
        )
        assert accumulators[0] == 0.0

    def test_deadband_boundary_not_transmitted(self):
        # (0.75 - 0.25)**2 == 0.5**2 exactly: a deviation equal to δ²
        # stays silent.
        transmit = deadband_transmit_slot(
            np.array([[0.75]]),
            np.array([[0.25]]),
            np.ones(1, dtype=bool),
            0.5**2,
        )
        assert not transmit[0]

    def test_deadband_session_boundary_not_transmitted(self):
        config = PipelineConfig(
            transmission=TransmissionConfig(deadband_delta=0.5),
            clustering=ClusteringConfig(num_clusters=1, seed=0),
            forecasting=ForecastingConfig(
                model="sample_hold", initial_collection=10
            ),
        )
        session = StreamSession(config, 1, 1, policy="deadband")
        session.ingest(np.array([0.25]))
        output = session.ingest(np.array([0.75]))
        np.testing.assert_array_equal(output.stored, [[0.25]])
        assert output.transport.messages == 0
        assert session.transport_stats.messages == 1

