"""Differentiable operator set.

The ops the encoders and the episode loss are built from, plus `mul` and
`sum_all`, which `gradcheck` and the tests' losses use; each has an analytic
backward rule. Layout conventions: feature maps are channels-last,
i.e. conv1d works on (L, C) rows with kernels (K, C, O), clips laid end to
end as everywhere else, and conv2d on (B, H, W, C) with kernels
(KH, KW, C, O); both run on one kernel, `_conv`.
Broadcasting is limited to bias-add over the last axis; everything else
requires explicit matching shapes.
"""

from __future__ import annotations

import ctypes
import sys
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, ShapeMismatchError, TapeConsumedError
from .tensor import Tensor, active_tape, as_tensor, guard_finite

# Ops whose gradients the finite-difference suite must cover.
DIFFERENTIABLE_OPS = (
    "add", "mul", "mul_scalar", "matmul", "relu", "log_abs", "sum_all", "mean_pool",
    "segment_mean", "concat", "reshape", "slice_rows",
    "gather_rows", "softmax", "squared_euclidean", "cross_entropy",
    "conv1d", "conv2d", "max_pool1d", "max_pool2d", "sinc_kernel", "lstm_sequence",
)


def _recording_tape(inputs: tuple):
    """The tape that will record an op on `inputs`: the active one, if any
    input requires grad; else None, and the op runs forward-only."""
    tape = active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _finish(op_name: str, inputs: tuple, out_data: np.ndarray, backward_fn) -> Tensor:
    guard_finite(out_data, op_name)
    out = Tensor(out_data)
    tape = _recording_tape(inputs)
    if tape is not None:
        tape.record(op_name, inputs, out, backward_fn)
    return out


def _need_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.data.shape} vs {b.data.shape}")


# -- elementwise -------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the last axis."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        if not (b.ndim == 1 and a.ndim >= 1 and a.data.shape[-1] == b.data.shape[0]):
            raise ShapeMismatchError(f"add: shapes {a.data.shape} vs {b.data.shape}")

        def bwd_bias(g):
            return g, g.reshape(-1, b.data.shape[0]).sum(axis=0)

        return _finish("add", (a, b), a.data + b.data, bwd_bias)

    def bwd(g):
        return g, g

    return _finish("add", (a, b), a.data + b.data, bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _need_same_shape("mul", a, b)

    def bwd(g):
        return g * b.data, g * a.data

    return _finish("mul", (a, b), a.data * b.data, bwd)


def mul_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (g * c,)

    return _finish("mul_scalar", (a,), a.data * c, bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0)

    def bwd(g):
        return (g * (a.data > 0),)

    return _finish("relu", (a,), out, bwd)


def _sigmoid_(z: np.ndarray) -> None:
    """In-place logistic sigmoid, clipped at ±60. The sign flips as a
    product with -1, the same bits: numpy 2.4's in-place `np.negative`
    writes wrong values through some strided views, e.g. every 4th float32
    or every 8th float64, which an LSTM gate slab of one value per gate is."""
    np.clip(z, -60.0, 60.0, out=z)
    np.multiply(z, -1.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def log_abs(a, eps: float) -> Tensor:
    """log(|a| + eps), SincNet's compression of its band-pass output; the
    gradient is (g / (|a| + eps)) * sign(a), which is 0 where a is ±0."""
    a = as_tensor(a)
    s = np.abs(a.data)
    s += eps
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(s)

    def bwd(g):
        return ((g / s) * np.sign(a.data),)

    return _finish("log_abs", (a,), out, bwd)


# -- reductions & reshapes ---------------------------------------------------

def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (np.broadcast_to(g, a.data.shape),)

    return _finish("sum_all", (a,), np.asarray(a.data.sum()), bwd)


def mean_pool(a, axis: int) -> Tensor:
    """Arithmetic mean over one axis (the axis disappears)."""
    a = as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeMismatchError(f"mean_pool: axis {axis} invalid for shape {a.data.shape}")
    axis = axis % a.ndim
    n = a.data.shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape),)

    return _finish("mean_pool", (a,), a.data.mean(axis=axis), bwd)


def segment_mean(a, lengths: Sequence[int]) -> Tensor:
    """Mean over consecutive row groups of sizes `lengths`; rows must tile a."""
    a = as_tensor(a)
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.ndim != 1 or np.any(lens < 1) or lens.sum() != a.data.shape[0]:
        raise ShapeMismatchError(
            f"segment_mean: lengths {list(lengths)} do not tile {a.data.shape[0]} rows"
        )
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    scale = lens.reshape((-1,) + (1,) * (a.ndim - 1)).astype(a.dtype)
    out = np.add.reduceat(a.data, starts, axis=0) / scale

    def bwd(g):
        return (np.repeat(g / scale, lens, axis=0),)

    return _finish("segment_mean", (a,), out, bwd)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    if not ts:
        raise ShapeMismatchError("concat: need at least one tensor")
    sizes = [t.data.shape[axis] for t in ts]
    out = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _finish("concat", ts, out, bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"reshape: {a.data.shape} -> {shape}") from exc
    return _finish("reshape", (a,), out, bwd)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the first axis."""
    a = as_tensor(a)
    if not 0 <= start < stop <= a.data.shape[0]:
        raise ShapeMismatchError(
            f"slice_rows: [{start}, {stop}) invalid for {a.data.shape[0]} rows"
        )

    def bwd(g):
        dz = np.zeros_like(a.data)
        dz[start:stop] = g
        return (dz,)

    return _finish("slice_rows", (a,), a.data[start:stop], bwd)


def gather_rows(a, index) -> Tensor:
    """Rows a[index[i]] along the first axis, where index -1 gives a zero row.

    No row of a may be taken twice, so the backward is one scatter of the
    gradient rows back to where they came from.
    """
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.int64)
    rows = a.data.shape[0]
    if idx.ndim != 1 or np.any(idx < -1) or np.any(idx >= rows):
        raise ShapeMismatchError(f"gather_rows: index outside [-1, {rows}) or not 1-D")
    dest = np.flatnonzero(idx >= 0)
    src = idx[dest]
    if np.bincount(src, minlength=1).max() > 1:
        raise ShapeMismatchError("gather_rows: a row is taken more than once")
    out = np.zeros((idx.size,) + a.data.shape[1:], dtype=a.dtype)
    out[dest] = a.data[src]

    def bwd(g):
        da = np.zeros_like(a.data)
        da[src] = g[dest]
        return (da,)

    return _finish("gather_rows", (a,), out, bwd)


# -- linear algebra ------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        da = g @ b.data.T if a.requires_grad else None
        db = a.data.T @ g if b.requires_grad else None
        return da, db

    return _finish("matmul", (a, b), a.data @ b.data, bwd)


def _numpy_gemm() -> dict:
    """dtype -> the CBLAS ?gemm numpy itself calls, found through the handle
    of numpy's own extension module; empty unless numpy carries the 64-bit-int
    scipy-openblas build (the PyPI wheels)."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return {}
    found = {}
    for dtype, name, real in ((np.float32, "scipy_cblas_sgemm64_", ctypes.c_float),
                              (np.float64, "scipy_cblas_dgemm64_", ctypes.c_double)):
        fn = getattr(lib, name, None)
        if fn is not None:
            i, ptr = ctypes.c_int64, ctypes.c_void_p
            fn.argtypes = (ctypes.c_int,) * 3 + (i,) * 3 + (real, ptr, i, ptr, i, real, ptr, i)
            fn.restype = None
            found[np.dtype(dtype)] = fn
    return found


_GEMM = _numpy_gemm()
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112      # CBLAS enum values


def _blas_layout(a: np.ndarray):
    """(CBLAS transpose flag, leading dimension) under which row-major ?gemm
    reads the 2-D array a in place, or None if its strides do not allow it."""
    (r, c), (s0, s1), item = a.shape, a.strides, a.itemsize
    if not a.flags.aligned:
        return None
    if s1 == item and s0 % item == 0 and s0 >= c * item:
        return _NO_TRANS, s0 // item
    if s0 == item and s1 % item == 0 and s1 >= r * item:     # a transposed view
        return _TRANS, s1 // item
    return None


def _matmul_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out += a @ b for 2-D a (m, k), b (k, n) and out (m, n).

    One ?gemm with β = 1 sums the product straight into out, so no (m, n)
    temporary is written and read back (Goto & van de Geijn 2008). It is the
    routine numpy's `@` calls, and with k within one of its blocks (every
    desk-scale conv) the sums round as `out += a @ b` does. Mixed dtypes, layouts
    ?gemm cannot read in place (a zero or short leading stride, an inner
    stride other than the item size), an out that overlaps an input, a
    numpy without that routine, and m or n of 1, which `@` runs as a faster
    matrix-vector product that rounds differently, take `out += a @ b`.
    """
    (m, k), n = a.shape, b.shape[1]
    gemm = _GEMM.get(out.dtype)
    if (gemm is not None and a.dtype == b.dtype == out.dtype and b.shape[0] == k
            and out.shape == (m, n) and m > 1 and n > 1 and k and out.flags.writeable
            and not np.may_share_memory(out, a) and not np.may_share_memory(out, b)):
        la, lb, lc = _blas_layout(a), _blas_layout(b), _blas_layout(out)
        if la and lb and lc and lc[0] == _NO_TRANS:
            gemm(_ROW_MAJOR, la[0], lb[0], m, n, k, 1.0, a.ctypes.data, la[1],
                 b.ctypes.data, lb[1], 1.0, out.ctypes.data, lc[1])
            return
    out += a @ b


# -- recurrence ------------------------------------------------------------------

def lstm_sequence(x, wx, b, wh, lengths: Sequence[int]) -> Tensor:
    """LSTM hidden states of consecutive clips of `lengths` rows each.

    x (N, D) holds every clip's input frames, one clip after another. The
    four gates' weights are stacked along the first axis in the order i, f,
    g, o: the input weight wx (4·D, H), the bias b (4·H,) and the recurrent
    weight wh (4·H, H). Returns the hidden states (N, H) in x's row order,
    each clip starting from h = c = 0.

    The rows are packed by step, as in packed sequences (Paszke et al.
    2019): with the clips longest first, the n_t clips still running at step
    t own the packed rows off_t : off_t + n_t, so no row belongs to a
    finished clip. x is gathered once into those rows. The weights are
    viewed gate-major, as (4, D, H), (4, 1, H) and (4, H, H), and every gate
    buffer keeps each gate's rows in one contiguous slab (Appleyard, Kočiský
    & Blunsom 2016). Each step adds b and the recurrent products h @ wh[k]
    to its (4, n_t, H) slabs, applies the gate activations in place and
    scatters its hidden rows into the output in x's row order.

    The tape decides only where a step's rows are kept, so it changes no
    bit: every step runs the same products on the same rows either way.
    Step t projects packed rows off_t : off_t + max(n_t, 2), the extra row
    being the next step's first or a zero row kept after the last, as numpy
    runs a one-row product as a matrix-vector product, which rounds
    differently. Under a tape (see `_recording_tape`) the gates, h, c and
    tanh(c) of every packed row are kept for BPTT; with none, only the
    current step's, in one n_0-row slot each (Gruslys et al. 2016). The
    backward is analytic BPTT over the same slabs. It overwrites the gate
    buffer with the gate gradients, so it runs once. d wx, d b and d wh are
    each one pass over the N packed rows, d wh with each row's entering
    state gathered once, and d x one product scattered back.
    """
    x, wx, b, wh = as_tensor(x), as_tensor(wx), as_tensor(b), as_tensor(wh)
    lens = np.asarray(lengths, dtype=np.int64)
    if wh.ndim != 2 or wh.data.shape[0] != 4 * wh.data.shape[1]:
        raise ShapeMismatchError(f"lstm_sequence: wh {wh.data.shape} is not (4H, H)")
    H = wh.data.shape[1]
    if wx.ndim != 2 or wx.data.shape[0] % 4 or wx.data.shape[1] != H:
        raise ShapeMismatchError(
            f"lstm_sequence: wx {wx.data.shape} vs (4·D, {H}) for wh {wh.data.shape}"
        )
    if b.data.shape != (4 * H,):
        raise ShapeMismatchError(f"lstm_sequence: b {b.data.shape} vs ({4 * H},)")
    D = wx.data.shape[0] // 4
    if x.ndim != 2 or x.data.shape[1] != D:
        raise ShapeMismatchError(f"lstm_sequence: x {x.data.shape} vs (N, {D}) for wx")
    if lens.ndim != 1 or lens.size == 0 or np.any(lens < 1) or lens.sum() != x.data.shape[0]:
        raise ShapeMismatchError(
            f"lstm_sequence: lengths {list(lengths)} do not tile {x.data.shape[0]} rows"
        )
    N, T = x.data.shape[0], int(lens.max())
    order = np.argsort(-lens, kind="stable")                   # clips longest first
    running = (lens[None, :] > np.arange(T)[:, None]).sum(axis=1)     # n_t
    offs = np.concatenate([[0], np.cumsum(running)])           # off_t
    step = np.repeat(np.arange(T), running)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    src = starts[order][np.arange(N) - offs[step]] + step      # x's row of each packed row
    dtype = np.result_type(x.dtype, wx.dtype, b.dtype, wh.dtype)
    xs = x.data[np.append(src, 0)].astype(dtype, copy=False)
    xs[N] = 0.0                        # reached by a last step with one running clip
    wx4, b4, wh4 = wx.data.reshape(4, D, H), b.data.reshape(4, 1, H), wh.data.reshape(4, H, H)
    B = running[0]
    # step t keeps its gates, h, c and tanh(c) from row at[t] on
    taped = _recording_tape((x, wx, b, wh)) is not None
    at, kept = (offs, N) if taped else (np.zeros_like(offs), B)
    gates = np.empty((4, kept + 1, H), dtype=dtype)
    hs, c, tc = (np.empty((kept, H), dtype=dtype) for _ in range(3))
    out = np.empty((N, H), dtype=dtype)
    for t in range(T):
        n, off, a, p = running[t], offs[t], at[t], at[t - 1]
        m = max(n, 2)                  # a one-row product would round differently
        np.matmul(xs[off:off + m], wx4, out=gates[:, a:a + m])
        z = gates[:, a:a + n]
        z += b4                        # before h @ wh, rounding as (x @ wx + b) + h @ wh
        if t:
            z += hs[p:p + n] @ wh4
        i, f, g, o = z
        _sigmoid_(z[:2])
        np.tanh(g, out=g)
        _sigmoid_(o)
        ct, tct = c[a:a + n], tc[a:a + n]
        ct[...] = i * g + f * c[p:p + n] if t else i * g     # reads c_{t-1} before writing c_t
        np.tanh(ct, out=tct)
        out[src[off:off + n]] = np.multiply(o, tct, out=hs[a:a + n])

    def bwd(gout):
        nonlocal gates
        if gates is None:
            raise TapeConsumedError("lstm_sequence: backward already ran through its buffers")
        dz_all, gates = gates[:, :N], None  # step t's gate gradients overwrite its activations
        dh_in = gout[src].astype(dtype, copy=False)
        wh4_t = np.ascontiguousarray(wh4.transpose(0, 2, 1))
        dh_rec = dc_rec = np.zeros((0, H), dtype=dtype)   # from step t + 1 into step t
        for t in range(T - 1, -1, -1):
            n, off, m = running[t], offs[t], dh_rec.shape[0]
            z, tct = dz_all[:, off:off + n], tc[off:off + n]
            i, f, g, o = z
            dh = dh_in[off:off + n]
            dh[:m] += dh_rec
            dc = dh * o
            dc *= 1.0 - tct * tct
            dc[:m] += dc_rec
            dz = np.empty_like(z)
            np.multiply(dc, g, out=dz[0])
            if t:
                np.multiply(dc, c[offs[t - 1]:offs[t - 1] + n], out=dz[1])
            else:
                dz[1] = 0.0
            np.multiply(dc, i, out=dz[2])
            np.multiply(dh, tct, out=dz[3])
            act_grad = 1.0 - z                 # sigmoid' = s(1 - s) for i, f, o
            act_grad *= z
            np.multiply(g, g, out=act_grad[2])   # tanh' = 1 - g² for g
            np.subtract(1.0, act_grad[2], out=act_grad[2])
            dc_rec = dc * f
            np.multiply(dz, act_grad, out=z)
            if t:
                dh_rec = np.matmul(z, wh4_t).sum(axis=0)
        dx = dwx = db = dwh = None
        if x.requires_grad:
            dx = np.empty((N, D), dtype=dtype)
            dx[src] = np.matmul(dz_all, wx4.transpose(0, 2, 1)).sum(axis=0)
        if wx.requires_grad:
            dwx = np.stack([xs[:N].T @ dz for dz in dz_all]).reshape(4 * D, H)
        if b.requires_grad:
            db = dz_all.sum(axis=1).reshape(4 * H)
        if wh.requires_grad:
            # d wh_k = Σ_t h_tᵀ dz_k,t over the rows of steps t ≥ 1, where
            # h_t is the state row r of step t enters with, row r - n_{t-1}
            entering = hs[np.arange(B, N) - np.repeat(running[:-1], running[1:])]
            dwh = np.stack([entering.T @ dz[B:] for dz in dz_all]).reshape(4 * H, H)
        return dx, dwx, db, dwh

    return _finish("lstm_sequence", (x, wx, b, wh), out, bwd)


# -- classification head -------------------------------------------------------

def softmax(a) -> Tensor:
    """Shift-by-max softmax over the last axis."""
    a = as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax", (a,), out, bwd)


def squared_euclidean(a, b) -> Tensor:
    """Pairwise squared distances: (Q, d) x (K, d) -> (Q, K)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatchError(f"squared_euclidean: shapes {a.data.shape} vs {b.data.shape}")
    diff = a.data[:, None, :] - b.data[None, :, :]
    out = np.einsum("qkd,qkd->qk", diff, diff)

    def bwd(g):
        scaled = 2.0 * g[:, :, None] * diff
        return scaled.sum(axis=1), -scaled.sum(axis=0)

    return _finish("squared_euclidean", (a, b), out, bwd)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Log-sum-exp is computed shift-by-max; labels are plain integers, not a
    differentiable input.
    """
    logits = as_tensor(logits)
    lab = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or lab.shape != (logits.data.shape[0],):
        raise ShapeMismatchError(
            f"cross_entropy: logits {logits.data.shape} vs labels {lab.shape}"
        )
    q, k = logits.data.shape
    if lab.min() < 0 or lab.max() >= k:
        raise ShapeMismatchError(f"cross_entropy: label outside [0, {k})")
    # Non-finite logits give a NaN loss, which train() reports by episode;
    # numpy's warning on the way would only add noise to that report.
    with np.errstate(invalid="ignore"):
        m = logits.data.max(axis=-1, keepdims=True)
        z = logits.data - m
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        p = e / s
        nll = np.log(s[:, 0]) - z[np.arange(q), lab]
        out = np.asarray(nll.mean())

    def bwd(g):
        d = p.copy()
        d[np.arange(q), lab] -= 1.0
        d *= float(g) / q
        # Once the loss nears 0, p - onehot underflows into subnormals. They
        # are far below what an Adam step can resolve, and every conv backward
        # they reach runs 30-100x slower; zero them here, where they are born.
        d[np.abs(d) < np.finfo(d.dtype).tiny] = 0.0
        return (d,)

    return _finish("cross_entropy", (logits,), out, bwd)


# -- convolution & pooling -----------------------------------------------------

def _conv(op_name: str, x: Tensor, w: Tensor, bias: Optional[Tensor],
          x4: np.ndarray, w4: np.ndarray, stride: tuple, padding: tuple) -> Tensor:
    """The one convolution kernel, on 4-D views x4 (B, H, W, C) and
    w4 (KH, KW, C, O) of x's and w's data, with (H, W) stride and padding.

    The input folds into cells of sh × sw pixels, laid end to end as the rows
    of one (rows, sh·sw·C) array. Each image gets Hs = max(Ho, ⌈(H + ph)/sh⌉)
    cell rows of Ws = max(Wo, ⌈(W + pw)/sw⌉) cells, with its pixels from
    (ph, pw) on, and Jh zero cell rows follow the last image. So neighbours
    share their zero border: the zeros under one image are the top padding
    of the next, and those right of a pixel row the left padding of the
    next row. The kernel folds into Jh·Jw taps of (sh·sw·C, O). Row f of the
    (B, Hs, Ws) output grid is Σ_j rows[f + off_j] @ tap_j with
    off_j = jh·Ws + jw, so each tap is one GEMM over a contiguous slice of
    rows, once forward and twice backward (Vasudevan, Anderson & Gregg 2017),
    and the GEMMs stop at the last kept row, N = ((B − 1)·Hs + Ho − 1)·Ws + Wo.
    The forward's taps and the input gradient's per-tap products sum straight
    into their output rows through `_matmul_add` (β = 1), with no temporary.
    Grid rows past an image's Ho × Wo are computed, then dropped as the kept
    rows of Wo·O floats are copied out, the bias added in the same pass. With
    one folded channel (`vgg` conv1) those GEMMs would have inner size 1 and
    run ~7x slower, so the forward runs one im2col GEMM instead, through the
    transpose of a (taps, rows) array filled one contiguous tap row at a time.
    Its input gradient is one (N, taps) product whose columns add into their
    rows in tap order: per tap it would be an (N, O) @ (O, 1) matrix-vector
    product, whose last rows round by their distance from row N, so an
    image's gradient would depend on the batch it came in.
    conv1d's (L, C) rows come in as the view (1, L, 1, C), and their output
    goes back as (Lo, O) rows: one image one pixel wide has no row to drop.
    """
    B, H, W, C = x4.shape
    KH, KW, _, O = w4.shape
    if bias is not None and bias.data.shape != (O,):
        raise ShapeMismatchError(f"{op_name}: bias {bias.data.shape} vs ({O},)")
    (sh, sw), (ph, pw) = stride, padding
    Ho, Wo = (H + 2 * ph - KH) // sh + 1, (W + 2 * pw - KW) // sw + 1
    Jh, Jw = -(-KH // sh), -(-KW // sw)
    Hs, Ws = max(Ho, -(-(H + ph) // sh)), max(Wo, -(-(W + pw) // sw))
    D = sh * sw * C
    dtype = np.result_type(x4.dtype, w4.dtype)
    cells = np.zeros(((B * Hs + Jh) * sh, Ws * sw, C), dtype=x4.dtype)
    cells[:B * Hs * sh].reshape(B, Hs * sh, Ws * sw, C)[:, ph:ph + H, pw:pw + W] = x4
    rows = cells.reshape(B * Hs + Jh, sh, Ws, sw, C).swapaxes(1, 2).reshape(-1, D)
    wpad = np.zeros((Jh * sh, Jw * sw, C, O), dtype=w4.dtype)
    wpad[:KH, :KW] = w4
    taps = wpad.reshape(Jh, sh, Jw, sw, C, O).swapaxes(1, 2).reshape(Jh * Jw, D, O)
    offs = [jh * Ws + jw for jh in range(Jh) for jw in range(Jw)]
    N = ((B - 1) * Hs + Ho - 1) * Ws + Wo    # the last kept row is N - 1
    dropped = N != B * Ho * Wo              # False for conv1d: B = 1, Ws = 1
    grid = np.empty((B * Hs * Ws, O), dtype=dtype)
    acc = grid[:N]
    if D == 1:
        col = np.empty((Jh * Jw, N), dtype=rows.dtype)
        for j, off in enumerate(offs):
            col[j] = rows[off:off + N, 0]
        np.matmul(col.T, taps.reshape(Jh * Jw, O), out=acc)
        del col                         # before the output copy below
    else:
        np.matmul(rows[:N], taps[0], out=acc)
        for off, tap in zip(offs[1:], taps[1:]):
            _matmul_add(rows[off:off + N], tap, acc)
    kept = grid.reshape(B, Hs, Ws * O)[:, :Ho, :Wo * O]  # contiguous unless dropped
    if bias is None:
        out = np.ascontiguousarray(kept)
    else:                               # long rows of Wo·O floats, not (N, O) rows of O
        out = np.empty(kept.shape, dtype=dtype) if dropped else kept
        np.add(kept, np.tile(bias.data, Wo), out=out)
    out = out.reshape((Ho, O) if x.ndim == 2 else (B, Ho, Wo, O))

    def bwd(g):
        if dropped:
            gflat = np.empty((B * Hs * Ws, O), dtype=g.dtype)
            grid4 = gflat.reshape(B, Hs, Ws, O)
            grid4[:, Ho:] = 0               # zero the dropped rows only
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
            drows = np.zeros(rows.shape, dtype=dtype)
            if D == 1:                  # one product, not one matrix-vector product per tap
                cols = np.matmul(gflat, taps.reshape(len(offs), O).T)
                for j, off in enumerate(offs):
                    drows[off:off + N, 0] += cols[:, j]
            else:
                for off, tap in zip(offs, taps):
                    _matmul_add(gflat, tap.T, drows[off:off + N])
            dcells = drows.reshape(B * Hs + Jh, Ws, sh, sw, C).swapaxes(1, 2)
            dcells = dcells.reshape(-1, Ws * sw, C)[:B * Hs * sh]
            dx = dcells.reshape(B, Hs * sh, Ws * sw, C)[:, ph:ph + H, pw:pw + W]
            dx = dx.reshape(x.data.shape)
        if bias is None:
            return dx, dw
        return dx, dw, np.einsum("ij->j", g.reshape(-1, O))

    inputs = (x, w) if bias is None else (x, w, bias)
    return _finish(op_name, inputs, out, bwd)


def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution: x (L, C) rows, w (K, C, O) -> (Lo, O).

    `_conv` on the views x[None, :, None] (one image, one pixel wide) and
    w[:, None]: the input folds into frames of `stride` samples and the
    kernel into ceil(K / stride) taps. One image has no neighbour to share a
    border with, so its GEMMs run over exactly its Lo output rows and none
    is dropped. At stride 1, clips laid end to end with `padding` zero rows
    between them each get the output rows of their own conv; SincNet's stack
    runs its batch as one conv that way.
    """
    x, w = as_tensor(x), as_tensor(w)
    bias = as_tensor(b) if b is not None else None
    if x.ndim != 2 or w.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatchError(f"conv1d: shapes {x.data.shape} vs {w.data.shape}")
    L, K = x.data.shape[0], w.data.shape[0]
    if L + 2 * padding < K:
        raise ShapeMismatchError(f"conv1d: padded length {L + 2 * padding} < kernel {K}")
    return _conv("conv1d", x, w, bias, x.data[None, :, None], w.data[:, None],
                 (stride, 1), (padding, 0))


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution: x (B, H, W, C), w (KH, KW, C, O) -> (B, Ho, Wo, O),
    by `_conv` with the same stride and padding along both axes. The images
    share their zero border there: at stride 1 and padding 1 each computes
    (H + 1)(W + 1) grid rows, not the (H + 2)(W + 2) of a border of its own."""
    x, w = as_tensor(x), as_tensor(w)
    bias = as_tensor(b) if b is not None else None
    if x.ndim != 4 or w.ndim != 4 or x.data.shape[3] != w.data.shape[2]:
        raise ShapeMismatchError(f"conv2d: shapes {x.data.shape} vs {w.data.shape}")
    (H, W), (KH, KW) = x.data.shape[1:3], w.data.shape[:2]
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if Hp < KH or Wp < KW:
        raise ShapeMismatchError(f"conv2d: padded input ({Hp},{Wp}) < kernel ({KH},{KW})")
    return _conv("conv2d", x, w, bias, x.data, w.data, (stride, stride), (padding, padding))


def _max_pool(op_name: str, x: Tensor, windows: list, remainder=None) -> Tensor:
    """Elementwise max of the strided views x[w] for w in windows, which tile
    x apart from the slice `remainder`. The backward sends each output's
    gradient to the first view, in window order, that holds its max: argmax's
    tie rule. It places the still-unplaced gradient times the window's hit
    mask, then takes what it placed out of the unplaced part; adding +0.0
    turns the -0.0 of negative gradients times a miss into 0.0."""
    views = [x.data[w] for w in windows]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)

    def bwd(g):
        dx = np.empty_like(x.data)
        if remainder is not None:
            dx[remainder] = 0
        unplaced = np.array(g, dtype=x.dtype)
        hit = np.empty(out.shape, dtype=bool)
        placed = np.empty_like(unplaced)
        for i, (w, view) in enumerate(zip(windows, views)):
            np.equal(view, out, out=hit)
            np.multiply(unplaced, hit, out=placed)
            np.add(placed, 0.0, out=dx[w])
            if i + 1 < len(windows):
                unplaced -= placed
        return (dx,)

    return _finish(op_name, (x,), out, bwd)


def max_pool1d(x, k: int = 2) -> Tensor:
    """Non-overlapping max pooling over the rows of x (L, C); a trailing
    remainder is dropped and gets zero gradient."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatchError(f"max_pool1d: need (L, C), got {x.data.shape}")
    L2 = x.data.shape[0] // k
    if L2 < 1:
        raise ShapeMismatchError(f"max_pool1d: length {x.data.shape[0]} < pool {k}")
    return _max_pool("max_pool1d", x, [np.s_[i:L2 * k:k] for i in range(k)],
                     remainder=np.s_[L2 * k:])


def max_pool2d(x, k: int = 2) -> Tensor:
    """k x k max pooling with stride k; spatial dims must divide evenly."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeMismatchError(f"max_pool2d: need (B, H, W, C), got {x.data.shape}")
    H, W = x.data.shape[1:3]
    if H % k or W % k:
        raise ShapeMismatchError(f"max_pool2d: ({H},{W}) not divisible by pool {k}")
    return _max_pool("max_pool2d", x,
                     [np.s_[:, i::k, j::k] for i in range(k) for j in range(k)])


# -- parameterized band-pass kernels --------------------------------------------

def sinc_cutoffs(theta_low: np.ndarray, theta_band: np.ndarray, min_band: float):
    """SincNet's clamp from the raw parameters to band edges 0 <= f1 < f2 <= 0.5,
    in cycles/sample: f1 = min(|θ_low|, 0.5 − floor) and
    f2 = min(f1 + (|θ_band| + floor), 0.5), with the floor `min_band` cast to
    the parameters' dtype. Returns f1, f2 and the masks of the entries each
    min leaves as they are, the only ones the gradient passes through."""
    floor = theta_low.dtype.type(min_band)
    low = np.abs(theta_low)
    f1 = np.minimum(low, 0.5 - floor)
    high = f1 + (np.abs(theta_band) + floor)
    return f1, np.minimum(high, 0.5), low <= 0.5 - floor, high <= 0.5


def sinc_kernel(theta_low, theta_band, min_band: float, window: np.ndarray) -> Tensor:
    """Band-pass FIR kernels from raw cutoff parameters, in the conv1d weight
    layout (kernel_len, 1, F), where kernel_len is the window's odd length.

    The cutoffs are `sinc_cutoffs(θ_low, θ_band, min_band)`, and kernel i is
    (2*f2*sinc(2*pi*f2*n) - 2*f1*sinc(2*pi*f1*n)) * window over centered taps
    n. The kernels are built as (F, kernel_len) rows and then transposed, and
    the backward sums along those rows: another layout would round the
    float32 kernels and cutoff gradients differently.
    """
    tl, tb = as_tensor(theta_low), as_tensor(theta_band)
    if tl.ndim != 1 or tl.data.shape != tb.data.shape:
        raise ShapeMismatchError(f"sinc_kernel: cutoffs {tl.data.shape} vs {tb.data.shape}")
    win = np.asarray(window, dtype=tl.dtype)
    kernel_len = win.size
    if win.ndim != 1 or kernel_len % 2 == 0:
        raise ConfigError(f"sinc_kernel: window {win.shape} must have an odd length")
    n = (np.arange(kernel_len) - (kernel_len - 1) // 2).astype(tl.dtype)
    f1, f2, free_low, free_high = sinc_cutoffs(tl.data, tb.data, min_band)

    def lowpass(f):
        return 2.0 * f[:, None] * np.sinc(2.0 * f[:, None] * n[None, :])

    out = (lowpass(f2) - lowpass(f1)) * win[None, :]

    def bwd(g):
        gw = g.reshape(kernel_len, -1).T * win[None, :]
        two_pi_n = 2.0 * np.pi * n[None, :]
        d2 = (gw * 2.0 * np.cos(two_pi_n * f2[:, None])).sum(axis=1) * free_high
        d1 = -(gw * 2.0 * np.cos(two_pi_n * f1[:, None])).sum(axis=1)
        return (d1 + d2) * free_low * np.sign(tl.data), d2 * np.sign(tb.data)

    return _finish("sinc_kernel", (tl, tb), out.T.copy().reshape(kernel_len, 1, -1), bwd)
