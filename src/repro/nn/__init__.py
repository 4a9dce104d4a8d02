"""From-scratch numpy deep-learning framework (CNN + LSTM + training)."""

from repro.nn.conv import Conv1d, GlobalAveragePool1d, MaxPool1d
from repro.nn.init import glorot_uniform, he_uniform, orthogonal
from repro.nn.layers import Dense, Dropout, Flatten, ReLU, Tanh
from repro.nn.losses import log_softmax, mse_loss, softmax, softmax_cross_entropy
from repro.nn.module import (
    DEFAULT_DTYPE,
    INFERENCE_DTYPE,
    Module,
    Parameter,
    Sequential,
    cast_once,
    in_inference_mode,
    inference_mode,
)
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.recurrent import LSTM, LastStep

__all__ = [
    "SGD",
    "Adam",
    "Conv1d",
    "DEFAULT_DTYPE",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAveragePool1d",
    "INFERENCE_DTYPE",
    "LSTM",
    "LastStep",
    "MaxPool1d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tanh",
    "cast_once",
    "clip_grad_norm",
    "glorot_uniform",
    "he_uniform",
    "in_inference_mode",
    "inference_mode",
    "log_softmax",
    "mse_loss",
    "orthogonal",
    "softmax",
    "softmax_cross_entropy",
]
