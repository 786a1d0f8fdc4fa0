"""Differentiable ops that only the tests' reference encoders use: the
per-gate LSTM cell's `sigmoid` and `tanh`, `pad_rows` for padded batches,
and the `absval`, `add_scalar` and `log` chain that `log_abs` replaced.
They record onto the tape as the library's ops do, and the acceptance suite
gradchecks each of them as it does every library op.
"""

import numpy as np

from protoaudio.diffcore import as_tensor
from protoaudio.diffcore.ops import _finish, _sigmoid_
from protoaudio.errors import ShapeMismatchError

TEST_OPS = ("sigmoid", "tanh", "pad_rows", "absval", "add_scalar", "log")


def sigmoid(a):
    a = as_tensor(a)
    out = a.data.copy()
    _sigmoid_(out)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _finish("sigmoid", (a,), out, bwd)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _finish("tanh", (a,), out, bwd)


def pad_rows(a, target_rows: int):
    """Zero-pad the first axis up to target_rows (appended at the end)."""
    a = as_tensor(a)
    rows = a.data.shape[0]
    if target_rows < rows:
        raise ShapeMismatchError(f"pad_rows: target {target_rows} < rows {rows}")
    pad = np.zeros((target_rows - rows,) + a.data.shape[1:], dtype=a.dtype)

    def bwd(g):
        return (g[:rows],)

    return _finish("pad_rows", (a,), np.concatenate([a.data, pad], axis=0), bwd)


def absval(a):
    a = as_tensor(a)

    def bwd(g):
        return (g * np.sign(a.data),)

    return _finish("absval", (a,), np.abs(a.data), bwd)


def add_scalar(a, c: float):
    a = as_tensor(a)

    def bwd(g):
        return (g,)

    return _finish("add_scalar", (a,), a.data + c, bwd)


def log(a):
    """Natural log; caller guarantees strictly positive input."""
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return _finish("log", (a,), out, bwd)
