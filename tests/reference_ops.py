"""Differentiable ops that only the tests' reference encoders use: the
per-gate LSTM cell's `sigmoid` and `tanh`, `pad_rows` for padded batches,
and the `absval`, `add_scalar` and `log` chain that `log_abs` replaced.
They record onto the tape as the library's ops do, and the acceptance suite
gradchecks each of them as it does every library op. `padded_conv1d` and
`padded_conv2d` run the conv kernel as it was before neighbouring images
shared their zero border, for the equivalence tests of `_conv`, and
`time_major_lstm_sequence` is the `lstm_sequence` that packed, gate-major
buffers replaced.
"""

import numpy as np

from protoaudio.diffcore import as_tensor
from protoaudio.diffcore.ops import _finish, _matmul_add, _recording_tape, _sigmoid_
from protoaudio.errors import ShapeMismatchError, TapeConsumedError

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


def time_major_lstm_sequence(x, wx, b, wh, lengths):
    """The `lstm_sequence` that packed, gate-major buffers replaced, for
    the equivalence tests: wx (D, 4H), b (4H,) and wh (H, 4H) with the
    gates side by side in the order i, f, g, o, and the clips' rows in a
    time-major (T·B, ·) layout in which finished clips keep zero rows."""
    x, wx, b, wh = as_tensor(x), as_tensor(wx), as_tensor(b), as_tensor(wh)
    lens = np.asarray(lengths, dtype=np.int64)
    if wh.ndim != 2 or wh.data.shape[1] != 4 * wh.data.shape[0]:
        raise ShapeMismatchError(f"lstm_sequence: wh {wh.data.shape} is not (H, 4H)")
    H = wh.data.shape[0]
    if wx.ndim != 2 or wx.data.shape[1] != 4 * H:
        raise ShapeMismatchError(
            f"lstm_sequence: wx {wx.data.shape} vs (D, {4 * H}) for wh {wh.data.shape}"
        )
    if b.data.shape != (4 * H,):
        raise ShapeMismatchError(f"lstm_sequence: b {b.data.shape} vs ({4 * H},)")
    D = wx.data.shape[0]
    if x.ndim != 2 or x.data.shape[1] != D:
        raise ShapeMismatchError(f"lstm_sequence: x {x.data.shape} vs (N, {D}) for wx")
    if lens.ndim != 1 or lens.size == 0 or np.any(lens < 1) or lens.sum() != x.data.shape[0]:
        raise ShapeMismatchError(
            f"lstm_sequence: lengths {list(lengths)} do not tile {x.data.shape[0]} rows"
        )
    B, T = lens.size, int(lens.max())
    order = np.argsort(-lens, kind="stable")                   # clips longest first
    slot = np.empty(B, dtype=np.int64)
    slot[order] = np.arange(B)
    running = (lens[None, :] > np.arange(T)[:, None]).sum(axis=1)     # n_t
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    first = starts[order]                                      # each slot's first row
    # flat (t, slot) buffer row of every input row
    rows = (np.arange(x.data.shape[0]) - np.repeat(starts, lens)) * B + np.repeat(slot, lens)
    dtype = np.result_type(x.dtype, wx.dtype, b.dtype, wh.dtype)
    xs = np.zeros((T * B, D), dtype=dtype)
    xs[rows] = x.data
    taped = _recording_tape((x, wx, b, wh)) is not None
    per_step = not taped and B > 1     # a one-row projection would round differently
    gates = np.empty((1 if per_step else T, B, 4 * H), dtype=dtype)
    if not per_step:
        np.matmul(xs, wx.data, out=gates.reshape(T * B, 4 * H))
    # slot (t + 1) % S of h and c is the state after step t; slot 0 starts at 0
    S = T + 1 if taped else 2
    h = np.zeros((S, B, H), dtype=dtype)
    c = np.zeros((S, B, H), dtype=dtype)
    tc = np.zeros((S - 1, B, H), dtype=dtype)
    out = np.empty((x.data.shape[0], H), dtype=dtype)
    for t in range(T):
        n, now, new = running[t], t % S, (t + 1) % S
        if per_step:
            np.matmul(xs[t * B:(t + 1) * B], wx.data, out=gates[0])
        z = gates[t % len(gates), :n]
        z += b.data                    # before h @ wh, rounding as (x @ wx + b) + h @ wh
        if t:
            z += h[now, :n] @ wh.data
        i, f, g, o = (z[:, k * H:(k + 1) * H] for k in range(4))
        _sigmoid_(z[:, :2 * H])
        np.tanh(g, out=g)
        _sigmoid_(o)
        np.multiply(i, g, out=c[new, :n])
        c[new, :n] += f * c[now, :n]
        tct = tc[t % len(tc), :n]
        np.tanh(c[new, :n], out=tct)
        np.multiply(o, tct, out=h[new, :n])
        out[first[:n] + t] = h[new, :n]

    def bwd(gout):
        nonlocal gates
        if gates is None:
            raise TapeConsumedError("lstm_sequence: backward already ran through its buffers")
        dz_all, gates = gates, None     # step t's gate gradients overwrite its activations
        dh_in = np.zeros((T, B, H), dtype=dtype)
        dh_in.reshape(T * B, H)[rows] = gout
        wh_t = np.ascontiguousarray(wh.data.T)
        dh_rec = dc_rec = np.zeros((0, H), dtype=dtype)   # from step t + 1 into step t
        for t in range(T - 1, -1, -1):
            n, m = running[t], dh_rec.shape[0]
            z, tct = dz_all[t, :n], tc[t, :n]
            i, f, g, o = (z[:, k * H:(k + 1) * H] for k in range(4))
            dh = dh_in[t, :n]
            dh[:m] += dh_rec
            dc = dh * o
            dc *= 1.0 - tct * tct
            dc[:m] += dc_rec
            dz = np.empty_like(z)
            np.multiply(dc, g, out=dz[:, :H])
            np.multiply(dc, c[t, :n], out=dz[:, H:2 * H])
            np.multiply(dc, i, out=dz[:, 2 * H:3 * H])
            np.multiply(dh, tct, out=dz[:, 3 * H:])
            act_grad = 1.0 - z                 # sigmoid' = s(1 - s) for i, f, o
            act_grad *= z
            g_grad = act_grad[:, 2 * H:3 * H]  # tanh' = 1 - g² for g
            np.multiply(g, g, out=g_grad)
            np.subtract(1.0, g_grad, out=g_grad)
            dc_rec = dc * f
            np.multiply(dz, act_grad, out=z)
            if t:
                dh_rec = z @ wh_t
        dz_rows = dz_all.reshape(T * B, 4 * H)
        dx = (dz_rows @ wx.data.T)[rows] if x.requires_grad else None
        dwx = xs.T @ dz_rows if wx.requires_grad else None
        db = dz_rows.sum(axis=0) if b.requires_grad else None
        # d wh = Σ_t h_tᵀ dz_t, where h_t is the state step t starts from
        dwh = h[:-1].reshape(T * B, H).T @ dz_rows if wh.requires_grad else None
        return dx, dwx, db, dwh

    return _finish("lstm_sequence", (x, wx, b, wh), out, bwd)
