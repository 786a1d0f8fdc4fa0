"""Differentiable ops that only the tests' reference encoders use: the
per-gate LSTM cell's `sigmoid` and `tanh`, `pad_rows` for padded batches,
and the `absval`, `add_scalar` and `log` chain that `log_abs` replaced.
They record onto the tape as the library's ops do, and the acceptance suite
gradchecks each of them as it does every library op. `padded_conv1d` and
`padded_conv2d` run the conv kernel as it was before neighbouring images
shared their zero border, for the equivalence tests of `_conv`.
"""

import numpy as np

from protoaudio.diffcore import as_tensor
from protoaudio.diffcore.ops import _finish, _matmul_add, _sigmoid_
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


def padded_conv(op_name, x, w, bias, x4, w4, stride, padding):
    """The `_conv` that the shared-border layout replaced: every image keeps
    its own zero border on all four sides, so its grid has Ho + Jh - 1 cell
    rows of Wo + Jw - 1 cells, and input past the last cell is not read."""
    B, H, W, C = x4.shape
    KH, KW, _, O = w4.shape
    (sh, sw), (ph, pw) = stride, padding
    Ho, Wo = (H + 2 * ph - KH) // sh + 1, (W + 2 * pw - KW) // sw + 1
    Jh, Jw = -(-KH // sh), -(-KW // sw)
    Hf, Wf = Ho + Jh - 1, Wo + Jw - 1
    D = sh * sw * C
    dtype = np.result_type(x4.dtype, w4.dtype)
    cells = np.zeros((B, Hf * sh, Wf * sw, C), dtype=x4.dtype)
    inside = cells[:, ph:ph + H, pw:pw + W]
    inside[...] = x4[:, :inside.shape[1], :inside.shape[2]]
    rows = cells.reshape(B, Hf, sh, Wf, sw, C).swapaxes(2, 3).reshape(B * Hf * Wf, D)
    wpad = np.zeros((Jh * sh, Jw * sw, C, O), dtype=w4.dtype)
    wpad[:KH, :KW] = w4
    taps = wpad.reshape(Jh, sh, Jw, sw, C, O).swapaxes(1, 2).reshape(Jh * Jw, D, O)
    offs = [jh * Wf + jw for jh in range(Jh) for jw in range(Jw)]
    N = B * Hf * Wf - offs[-1]
    dropped = N != B * Ho * Wo
    grid = np.empty((B * Hf * Wf, O), dtype=dtype)
    acc = grid[:N]
    if D == 1:
        col = np.empty((Jh * Jw, N), dtype=rows.dtype)
        for j, off in enumerate(offs):
            col[j] = rows[off:off + N, 0]
        np.matmul(col.T, taps.reshape(Jh * Jw, O), out=acc)
        del col
    else:
        np.matmul(rows[:N], taps[0], out=acc)
        for off, tap in zip(offs[1:], taps[1:]):
            _matmul_add(rows[off:off + N], tap, acc)
    if bias is not None:
        acc += bias.data
    out = np.ascontiguousarray(grid.reshape(B, Hf, Wf, O)[:, :Ho, :Wo]) if dropped else acc
    out = out.reshape((Ho, O) if x.ndim == 2 else (B, Ho, Wo, O))

    def bwd(g):
        if dropped:
            gflat = np.empty((B * Hf * Wf, O), dtype=g.dtype)
            grid4 = gflat.reshape(B, Hf, Wf, O)
            grid4[:, Ho:] = 0
            grid4[:, :Ho, Wo:] = 0
            grid4[:, :Ho, :Wo] = g.reshape(B, Ho, Wo, O)
            gflat = gflat[:N]
        else:
            gflat = g.reshape(N, O)
        dw = np.stack([rows[off:off + N].T @ gflat for off in offs])
        dw = dw.reshape(Jh, Jw, sh, sw, C, O).swapaxes(1, 2).reshape(Jh * sh, Jw * sw, C, O)
        dw = dw[:KH, :KW].reshape(w.data.shape)
        dx = None
        if x.requires_grad:
            drows = np.zeros((B * Hf * Wf, D), dtype=dtype)
            for off, tap in zip(offs, taps):
                _matmul_add(gflat, tap.T, drows[off:off + N])
            dcells = drows.reshape(B, Hf, Wf, sh, sw, C).swapaxes(2, 3)
            dx = dcells.reshape(B, Hf * sh, Wf * sw, C)[:, ph:ph + H, pw:pw + W]
            if dx.shape[1:3] != (H, W):
                dx = np.pad(dx, ((0, 0), (0, H - dx.shape[1]), (0, W - dx.shape[2]), (0, 0)))
            dx = dx.reshape(x.data.shape)
        if bias is None:
            return dx, dw
        return dx, dw, np.einsum("ij->j", g.reshape(-1, O))

    inputs = (x, w) if bias is None else (x, w, bias)
    return _finish(op_name, inputs, out, bwd)


def padded_conv1d(x, w, b=None, stride=1, padding=0):
    x, w = as_tensor(x), as_tensor(w)
    bias = as_tensor(b) if b is not None else None
    return padded_conv("conv1d", x, w, bias, x.data[None, :, None], w.data[:, None],
                       (stride, 1), (padding, 0))


def padded_conv2d(x, w, b=None, stride=1, padding=0):
    x, w = as_tensor(x), as_tensor(w)
    bias = as_tensor(b) if b is not None else None
    return padded_conv("conv2d", x, w, bias, x.data, w.data, (stride, stride), (padding, padding))
