"""Tests for the numpy LSTM stack: layers, gradients, training, forecasting."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.lstm import (
    Adam,
    DenseLayer,
    LSTMLayer,
    LstmForecaster,
    MinMaxScaler,
    StackedLSTMNetwork,
    build_windows,
    clip_gradients,
    sigmoid,
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.isfinite(out).all()

    def test_symmetry(self):
        x = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0)


def numerical_gradient(fn, param, idx, eps=1e-6):
    orig = param[idx]
    param[idx] = orig + eps
    up = fn()
    param[idx] = orig - eps
    down = fn()
    param[idx] = orig
    return (up - down) / (2 * eps)


class TestLSTMLayerGradients:
    def _setup(self, seed=0, batch=3, steps=4, input_dim=2, hidden=5):
        rng = np.random.default_rng(seed)
        layer = LSTMLayer(input_dim, hidden, rng=rng)
        x = rng.normal(size=(batch, steps, input_dim))
        target = rng.normal(size=(batch, steps, hidden))

        def loss():
            h = layer.forward(x)
            return 0.5 * float(np.sum((h - target) ** 2))

        # Analytic gradients.
        h = layer.forward(x)
        layer.backward(h - target)
        return layer, x, loss

    @pytest.mark.parametrize("name", ["W", "U", "b"])
    def test_parameter_gradients(self, name):
        layer, x, loss = self._setup()
        grad = layer.gradients[name]
        param = layer.parameters[name]
        rng = np.random.default_rng(1)
        flat_indices = rng.choice(param.size, size=6, replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, param.shape)
            numeric = numerical_gradient(loss, param, idx)
            assert grad[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_input_gradients(self):
        rng = np.random.default_rng(2)
        layer = LSTMLayer(2, 4, rng=rng)
        x = rng.normal(size=(2, 3, 2))
        target = rng.normal(size=(2, 3, 4))
        h = layer.forward(x)
        dx = layer.backward(h - target)

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        for idx in [(0, 0, 0), (1, 2, 1), (0, 1, 1)]:
            numeric = numerical_gradient(loss, x, idx)
            assert dx[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_forward_shapes(self):
        layer = LSTMLayer(3, 7, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((2, 5, 3)))
        assert out.shape == (2, 5, 7)

    def test_forward_bad_input(self):
        layer = LSTMLayer(3, 7)
        with pytest.raises(DataError):
            layer.forward(np.zeros((2, 5, 4)))

    def test_backward_before_forward(self):
        layer = LSTMLayer(2, 3)
        with pytest.raises(DataError):
            layer.backward(np.zeros((1, 1, 3)))

    def test_forget_bias_initialized_to_one(self):
        layer = LSTMLayer(2, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(layer.b[4:8], 1.0)


class TestDenseLayer:
    def test_linear_forward(self):
        layer = DenseLayer(2, 1, activation="linear",
                           rng=np.random.default_rng(0))
        layer.W[:] = [[2.0], [3.0]]
        layer.b[:] = 1.0
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(6.0)

    def test_relu_clamps(self):
        layer = DenseLayer(1, 1, activation="relu",
                           rng=np.random.default_rng(0))
        layer.W[:] = [[1.0]]
        layer.b[:] = 0.0
        assert layer.forward(np.array([[-2.0]]))[0, 0] == 0.0

    def test_gradients(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(3, 2, activation="relu", rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        dx = layer.backward(out - target)
        for idx in [(0, 0), (2, 1)]:
            numeric = numerical_gradient(loss, layer.W, idx)
            assert layer.dW[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
        numeric_x = numerical_gradient(loss, x, (1, 2))
        assert dx[1, 2] == pytest.approx(numeric_x, rel=1e-4, abs=1e-7)

    def test_invalid_activation(self):
        with pytest.raises(ConfigurationError):
            DenseLayer(2, 1, activation="tanh")

    def test_bias_init(self):
        layer = DenseLayer(2, 1, bias_init=0.5)
        assert layer.b[0] == 0.5


class TestStackedNetwork:
    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(4)
        net = StackedLSTMNetwork(1, 4, 1, rng=rng)
        x = rng.normal(size=(3, 5, 1))
        y = rng.normal(size=(3, 1))
        net.loss_and_gradient(x, y)

        def loss():
            return float(np.mean((net.forward(x) - y) ** 2))

        for layer, name, idx in [
            (net.lstm1, "W", (0, 3)),
            (net.lstm2, "U", (1, 2)),
            (net.head, "W", (2, 0)),
        ]:
            # Recompute analytic gradients (loss() calls overwrote caches).
            net.loss_and_gradient(x, y)
            analytic = layer.gradients[name][idx]
            numeric = numerical_gradient(loss, layer.parameters[name], idx)
            assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-7)

    def test_output_shape(self):
        net = StackedLSTMNetwork(1, 4, 1, rng=np.random.default_rng(0))
        out = net.forward(np.zeros((7, 3, 1)))
        assert out.shape == (7, 1)

    def test_target_shape_mismatch(self):
        net = StackedLSTMNetwork(1, 4, 1, rng=np.random.default_rng(0))
        with pytest.raises(DataError):
            net.loss_and_gradient(np.zeros((2, 3, 1)), np.zeros((3, 1)))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        net = StackedLSTMNetwork(1, 8, 1, rng=rng)
        t = np.arange(100)
        series = 0.5 + 0.3 * np.sin(2 * np.pi * t / 10)
        windows, targets = build_windows(series, 8)
        optimizer = Adam(net.layers, learning_rate=1e-2)
        first = net.loss_and_gradient(windows, targets[:, None])
        for _ in range(60):
            loss = net.loss_and_gradient(windows, targets[:, None])
            clip_gradients(net.layers, 5.0)
            optimizer.step()
        assert loss < first * 0.2


class TestOptimizers:
    def test_adam_moves_toward_minimum(self):
        layer = DenseLayer(1, 1, activation="linear",
                           rng=np.random.default_rng(0))
        optimizer = Adam([layer], learning_rate=0.1)
        x = np.array([[1.0]])
        for _ in range(200):
            out = layer.forward(x)
            layer.backward(out - 3.0)
            optimizer.step()
        assert layer.forward(x)[0, 0] == pytest.approx(3.0, abs=0.05)

    def test_clip_gradients_bounds_norm(self):
        layer = DenseLayer(2, 2, activation="linear",
                           rng=np.random.default_rng(2))
        layer.dW[:] = 100.0
        layer.db[:] = 100.0
        norm_before = clip_gradients([layer], 1.0)
        assert norm_before > 1.0
        total = np.sqrt(
            np.sum(layer.dW**2) + np.sum(layer.db**2)
        )
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_clip_invalid_norm(self):
        with pytest.raises(ConfigurationError):
            clip_gradients([], 0.0)

    def test_adam_invalid_params(self):
        with pytest.raises(ConfigurationError):
            Adam([], learning_rate=-1.0)
        with pytest.raises(ConfigurationError):
            Adam([], beta1=1.0)


class TestBuildWindows:
    def test_shapes_and_alignment(self):
        series = np.arange(10, dtype=float)
        windows, targets = build_windows(series, 3)
        assert windows.shape == (7, 3, 1)
        assert targets.shape == (7,)
        np.testing.assert_array_equal(windows[0, :, 0], [0, 1, 2])
        assert targets[0] == 3.0
        np.testing.assert_array_equal(windows[-1, :, 0], [6, 7, 8])
        assert targets[-1] == 9.0

    def test_too_short(self):
        with pytest.raises(DataError):
            build_windows(np.arange(3, dtype=float), 3)


class TestMinMaxScaler:
    def test_round_trip(self):
        scaler = MinMaxScaler().fit(np.array([2.0, 4.0, 6.0]))
        x = np.array([3.0, 5.0])
        np.testing.assert_allclose(scaler.inverse(scaler.transform(x)), x)

    def test_constant_series_safe(self):
        scaler = MinMaxScaler().fit(np.full(5, 3.0))
        out = scaler.transform(np.array([3.0]))
        assert np.isfinite(out).all()


class TestLstmForecaster:
    def test_learns_sine(self):
        t = np.arange(240)
        series = 0.5 + 0.3 * np.sin(2 * np.pi * t / 24)
        forecaster = LstmForecaster(
            hidden_dim=16, lookback=12, epochs=25, seed=0
        )
        forecaster.fit(series)
        prediction = forecaster.forecast(6)
        truth = 0.5 + 0.3 * np.sin(2 * np.pi * (240 + np.arange(6)) / 24)
        assert np.abs(prediction - truth).mean() < 0.06

    def test_update_influences_forecast(self):
        t = np.arange(150)
        series = 0.5 + 0.2 * np.sin(2 * np.pi * t / 15)
        forecaster = LstmForecaster(
            hidden_dim=8, lookback=10, epochs=10, seed=1
        )
        forecaster.fit(series)
        f1 = forecaster.forecast(1)[0]
        for _ in range(5):
            forecaster.update(0.9)
        f2 = forecaster.forecast(1)[0]
        assert f2 != pytest.approx(f1)

    def test_deterministic_with_seed(self):
        series = np.random.default_rng(6).random(80)
        a = LstmForecaster(hidden_dim=4, lookback=5, epochs=3, seed=7)
        b = LstmForecaster(hidden_dim=4, lookback=5, epochs=3, seed=7)
        fa = a.fit(series).forecast(3)
        fb = b.fit(series).forecast(3)
        np.testing.assert_allclose(fa, fb)

    def test_series_too_short(self):
        forecaster = LstmForecaster(lookback=20)
        with pytest.raises(DataError):
            forecaster.fit(np.zeros(10))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LstmForecaster(lookback=0)
        with pytest.raises(ConfigurationError):
            LstmForecaster(epochs=0)
        with pytest.raises(ConfigurationError):
            LstmForecaster(batch_size=0)

    def test_loss_history_populated(self):
        series = np.random.default_rng(8).random(60)
        forecaster = LstmForecaster(hidden_dim=4, lookback=5, epochs=4, seed=0)
        forecaster.fit(series)
        assert forecaster.loss_history.shape == (4,)

    def test_forecast_nonnegative(self):
        # ReLU head + [0, 1] scaling: forecasts stay at or above the
        # training minimum.
        series = np.abs(np.random.default_rng(9).random(80))
        forecaster = LstmForecaster(hidden_dim=4, lookback=5, epochs=3, seed=0)
        forecaster.fit(series)
        assert (forecaster.forecast(5) >= series.min() - 1e-9).all()
