"""LSTM forecasting stack implemented from scratch in numpy."""

from repro.forecasting.lstm.forecaster import (
    LstmForecaster,
    MinMaxScaler,
    build_windows,
)
from repro.forecasting.lstm.layers import DenseLayer, LSTMLayer, sigmoid
from repro.forecasting.lstm.network import StackedLSTMNetwork
from repro.forecasting.lstm.optimizers import Adam, clip_gradients

__all__ = [
    "LstmForecaster",
    "MinMaxScaler",
    "build_windows",
    "DenseLayer",
    "LSTMLayer",
    "sigmoid",
    "StackedLSTMNetwork",
    "Adam",
    "clip_gradients",
]
