"""Gradient-descent optimizers for the numpy neural network."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.forecasting.lstm.layers import Layer


def clip_gradients(layers: Sequence[Layer], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns:
        The pre-clipping global norm (useful for monitoring).
    """
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for layer in layers:
        for grad in layer.gradients.values():
            total += float(np.sum(grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for layer in layers:
            for grad in layer.gradients.values():
                grad *= scale
    return norm


class Adam:
    """Adam optimizer over a list of layers.

    Args:
        layers: The layers whose parameters to update; each exposes
            ``parameters`` and ``gradients`` dicts with matching keys.
        learning_rate: Step size α.
        beta1, beta2: Exponential decay rates of the moment estimates.
        epsilon: Denominator fuzz factor.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigurationError("betas must be in [0, 1)")
        self.layers = list(layers)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._m: List[Dict[str, np.ndarray]] = [
            {k: np.zeros_like(v) for k, v in layer.parameters.items()}
            for layer in self.layers
        ]
        self._v: List[Dict[str, np.ndarray]] = [
            {k: np.zeros_like(v) for k, v in layer.parameters.items()}
            for layer in self.layers
        ]

    def step(self) -> None:
        """Apply one Adam update using the layers' current gradients."""
        self._step += 1
        t = self._step
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for layer, m_state, v_state in zip(self.layers, self._m, self._v):
            params = layer.parameters
            grads = layer.gradients
            for key, param in params.items():
                grad = grads[key]
                m = m_state[key]
                v = v_state[key]
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad**2
                m_hat = m / bias1
                v_hat = v / bias2
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
