import ast
import ctypes
import gc
import hashlib
import math
import os
import platform
import statistics
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from protoaudio import diffcore as dc
from protoaudio.diffcore import ops
from protoaudio.diffcore.ops import _finish, _matmul_add
from protoaudio.diffcore.tensor import _keep_freed_memory_mapped
from protoaudio.encoders import EncoderSpec
from protoaudio.encoders.vgg import _POOL_AFTER
from protoaudio.errors import (
    ConfigError,
    CorruptCheckpointError,
    NonFiniteValueError,
    NonScalarLossError,
    ShapeMismatchError,
    TapeConsumedError,
)

import reference_ops as rops


def t64(a, grad=True):
    return dc.Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


# -- hand-verified backward cases ---------------------------------------------


def test_relu_subgradient():
    x = t64([-1.0, 2.0])
    with dc.Tape():
        loss = dc.sum_all(dc.relu(x))
        grads = dc.backward(loss)
    np.testing.assert_array_equal(grads[x], [0.0, 1.0])


def test_squared_euclidean_values():
    a = dc.Tensor(np.array([[1.0, 0.0]]))
    assert dc.squared_euclidean(a, dc.Tensor(np.array([[0.0, 0.0]]))).data[0, 0] == 1.0
    assert dc.squared_euclidean(a, dc.Tensor(np.array([[2.0, 0.0]]))).data[0, 0] == 1.0


def test_backward_sum_gives_ones():
    x = t64(np.arange(12, dtype=np.float64).reshape(3, 4))
    with dc.Tape():
        grads = dc.backward(dc.sum_all(x))
    np.testing.assert_array_equal(grads[x], np.ones((3, 4)))


def test_backward_product_rule():
    x, y = t64([3.0]), t64([4.0])
    with dc.Tape():
        grads = dc.backward(dc.sum_all(dc.mul(x, y)))
    assert grads[x][0] == 4.0
    assert grads[y][0] == 3.0


def test_softmax_cross_entropy_gradient_hand_case():
    # softmax of (0,0,0) is uniform; grad = p - onehot = (1/3, -2/3, 1/3)
    logits = t64([[0.0, 0.0, 0.0]])
    with dc.Tape():
        loss = dc.cross_entropy(logits, np.array([1]))
        grads = dc.backward(loss)
    np.testing.assert_allclose(grads[logits][0], [1 / 3, -2 / 3, 1 / 3], atol=1e-12)
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_gradient_accumulates_across_fanout():
    def run(double):
        x = t64([[0.3, -0.7], [1.2, 0.4]])
        with dc.Tape():
            y = rops.tanh(dc.mul(x, x))
            loss = dc.sum_all(dc.add(y, y)) if double else dc.sum_all(y)
            grads = dc.backward(loss)
        return grads[x]

    np.testing.assert_array_equal(run(True), 2.0 * run(False))


def test_softmax_sums_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.normal(scale=5.0, size=(4, 7))
        p = dc.softmax(dc.Tensor(logits)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)
        q = dc.softmax(dc.Tensor(logits + 123.456)).data
        np.testing.assert_allclose(p, q, atol=1e-9)


def test_backward_requires_scalar():
    x = t64([[1.0, 2.0]])
    with dc.Tape():
        y = dc.mul(x, x)
        with pytest.raises(NonScalarLossError):
            dc.backward(y)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(3, 3\)"):
        dc.add(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((3, 3))))


def test_checked_mode_flags_nonfinite():
    with dc.checked_mode():
        with pytest.raises(NonFiniteValueError):
            rops.log(dc.Tensor(np.array([-1.0])))
    # outside checked mode the same op just propagates the nan
    out = rops.log(dc.Tensor(np.array([-1.0])))
    assert np.isnan(out.data[0])


def test_checked_mode_is_per_thread():
    entered, release = threading.Event(), threading.Event()

    def hold_checked_mode():
        with dc.checked_mode():
            entered.set()
            release.wait(timeout=10)

    other = threading.Thread(target=hold_checked_mode)
    other.start()
    try:
        assert entered.wait(timeout=10)
        out = rops.log(dc.Tensor(np.array([-1.0])))   # must not raise here
        assert np.isnan(out.data[0])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_backward_frees_tape_without_cyclic_gc():
    """A step's tape, and the activations its nodes hold, go as soon as the
    step's names do; the cyclic collector is not needed."""
    w = t64([[0.5, -1.0], [2.0, 0.3]])
    gc.disable()
    try:
        with dc.Tape() as tape:
            h = rops.tanh(dc.matmul(t64([[1.0, 2.0], [3.0, 4.0]], grad=False), w))
            loss = dc.cross_entropy(h, np.array([0, 1]))
            grads = dc.backward(loss)
        assert w in grads
        alive = weakref.ref(tape)
        del tape, h, loss, grads
        assert alive() is None
    finally:
        gc.enable()


def test_backward_frees_each_node_as_the_sweep_passes_it():
    """An array that only a later node's backward captures is freed before an
    earlier node's backward runs; the cyclic collector is not needed."""
    x = t64([1.0, 2.0])
    seen = []
    gc.disable()
    try:
        with dc.Tape() as tape:
            y = dc.mul(x, x)
            earlier = tape.nodes[-1]
            mul_backward = earlier.backward_fn

            def spy(g):
                seen.append(captured())
                return mul_backward(g)

            earlier.backward_fn = spy
            scratch = np.full(2, 3.0)
            captured = weakref.ref(scratch)
            doubled = dc.Tensor(2.0 * y.data)
            tape.record("double", (y,), doubled, lambda g, keep=scratch: (2.0 * g,))
            del scratch
            grads = dc.backward(dc.sum_all(doubled))
    finally:
        gc.enable()
    assert seen == [None]
    np.testing.assert_array_equal(grads[x], [4.0, 8.0])


# Trains desk sincnet episodes on a small synthetic corpus and prints the
# minor page faults of each episode, read in train()'s progress callback.
EPISODE_FAULTS = """
import resource, sys
from protoaudio import (EncoderSpec, FrontendConfig, TrainConfig, build_encoder,
                        gen_synthetic_corpus, train)
manifest, _ = gen_synthetic_corpus(sys.argv[1], n_classes=5, clips_per_class=10, seed=5)
split = {label: [str(p) for p in paths] for label, paths in manifest.by_class().items()}
encoder = build_encoder(EncoderSpec("sincnet", "desk"), FrontendConfig(), 1)
cfg = TrainConfig(max_episodes=6, eval_interval=100, lr=1e-3, seed=1)
faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
train(encoder, split, {}, cfg,
      progress=lambda *_: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(*[b - a for a, b in zip(faults, faults[1:])])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_steady_episode_reuses_freed_heap_memory(tmp_path):
    """Memory backward() frees stays mapped, so once the input cache is full
    an episode's forward reuses it without page faults."""
    assert _keep_freed_memory_mapped() == (1, 1)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(dc.__file__).resolve().parents[2]))
    out = subprocess.run([sys.executable, "-c", EPISODE_FAULTS, str(tmp_path / "corpus")],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    faults = [int(f) for f in out.stdout.split()]
    assert len(faults) == 6
    assert statistics.median(faults[2:]) < 500, faults


def test_malloc_policy_left_alone_off_glibc(monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded a C library off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", no_load)
    assert _keep_freed_memory_mapped() == ()


def test_second_backward_through_tape_raises():
    x = t64([1.0, 2.0])
    with dc.Tape():
        loss = dc.sum_all(dc.mul(x, x))
        dc.backward(loss)
        with pytest.raises(TapeConsumedError):
            dc.backward(loss)


def test_backward_map_holds_the_only_reference_to_each_gradient():
    """backward() hands each leaf's gradient out once, as an array in the map
    it returns; no leaf keeps one, so dropping the map frees every gradient."""
    a, w = t64([[1.0, 2.0], [3.0, -1.0]]), t64([[0.5, -1.0], [2.0, 0.3]])
    gc.disable()
    try:
        with dc.Tape():
            loss = dc.sum_all(rops.tanh(dc.matmul(a, w)))
            grads = dc.backward(loss)
        alive = [weakref.ref(g) for g in grads.values()]
        assert len(alive) == 2
        del grads
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_non_grad_leaves_absent_from_map():
    x = t64([1.0, 2.0])
    c = dc.Tensor(np.array([3.0, 4.0]))  # no grad
    with dc.Tape():
        loss = dc.sum_all(dc.mul(x, c))
        gmap = dc.backward(loss)
    assert x in gmap
    assert c not in gmap
    np.testing.assert_array_equal(gmap[x], [3.0, 4.0])


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (lambda x, w, b: dc.conv1d(x, w, b, stride=2, padding=1), (22, 3), (5, 3, 4)),
    (lambda x, w, b: dc.conv2d(x, w, b, padding=1), (2, 4, 6, 3), (3, 3, 3, 4)),
    (lambda x, w, b: dc.conv2d(x, w, b, padding=1), (2, 4, 6, 1), (3, 3, 1, 4)),
], ids=["conv1d", "conv2d", "conv2d_single_channel"])
def test_conv_frozen_input_skips_input_gradient(op, x_shape, w_shape):
    """A conv input that needs no gradient gets none, and its backward does
    not compute one; the weight and bias gradients are unchanged."""
    rng = np.random.default_rng(11)
    x_data = rng.standard_normal(x_shape)
    w, b = t64(rng.standard_normal(w_shape)), t64(rng.standard_normal(w_shape[-1]))
    grads = {}
    for frozen in (False, True):
        x = t64(x_data, grad=not frozen)
        with dc.Tape() as tape:
            out = op(x, w, b)
            node = tape.nodes[-1]
            weights = dc.Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
            gmap = dc.backward(dc.sum_all(dc.mul(out, weights)))
        grads[frozen] = (gmap[w], gmap[b])
        assert (x in gmap) is not frozen
    assert x not in gmap
    assert node.backward_fn(np.ones(out.shape))[0] is None
    for got, want in zip(grads[True], grads[False]):
        np.testing.assert_array_equal(got, want)


def test_matmul_frozen_input_skips_its_gradient():
    """A matmul operand that needs no gradient gets none, and the backward
    does not compute one; the other operand's gradient is unchanged."""
    rng = np.random.default_rng(12)
    a_data, w = rng.standard_normal((5, 4)), t64(rng.standard_normal((4, 3)))
    grads = {}
    for frozen in (False, True):
        a = t64(a_data, grad=not frozen)
        with dc.Tape() as tape:
            out = dc.matmul(a, w)
            node = tape.nodes[-1]
            weights = dc.Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
            gmap = dc.backward(dc.sum_all(dc.mul(out, weights)))
        grads[frozen] = gmap[w]
        assert (a in gmap) is not frozen
    assert node.backward_fn(np.ones(out.shape))[0] is None
    np.testing.assert_array_equal(grads[True], grads[False])


@pytest.mark.parametrize("x_shape,wh_shape,lengths", [
    ((6, 8), (8, 2), [2, 3]),            # rows not tiled
    ((5, 8), (8, 2), [5, 0]),            # empty clip
    ((5, 8), (8, 2), [6, -1]),           # negative length
    ((5, 8), (8, 2), []),                # no clips
    ((5, 6), (8, 2), [5]),               # x has 6 columns, wx 4·8 rows
    ((5, 8), (6, 2), [5]),               # wh not (4H, H)
    ((5, 8, 1), (8, 2), [5]),            # x not 2-D
])
def test_lstm_sequence_rejects_bad_shapes(x_shape, wh_shape, lengths):
    """x (N, 8) frames against wx (4·8, H) and b (4H,), H from wh."""
    hidden = wh_shape[1]
    with pytest.raises(ShapeMismatchError):
        dc.lstm_sequence(np.zeros(x_shape), np.zeros((32, hidden)), np.zeros(4 * hidden),
                         np.zeros(wh_shape), lengths)


@pytest.mark.parametrize("wx_shape,b_shape", [
    ((24, 2), (8,)),                     # wx rows are not 4 × x's 5 columns
    ((20, 3), (8,)),                     # wx not (4·D, H)
    ((20, 2, 1), (8,)),                  # wx not 2-D
    ((20, 2), (6,)),                     # b not (4H,)
    ((20, 2), (1, 8)),                   # b not 1-D
    ((22, 2), (8,)),                     # wx rows not a multiple of 4
])
def test_lstm_sequence_rejects_bad_input_weights(wx_shape, b_shape):
    """x (4, 5) frames of clips [3, 1] with wh (8, 2)."""
    with pytest.raises(ShapeMismatchError):
        dc.lstm_sequence(np.zeros((4, 5)), np.zeros(wx_shape), np.zeros(b_shape),
                         np.zeros((8, 2)), [3, 1])


def test_lstm_sequence_backward_runs_once():
    """The backward overwrites the forward's gate buffer, so a second call
    raises rather than returning wrong gradients."""
    rng = np.random.default_rng(14)
    with dc.Tape() as tape:
        out = dc.lstm_sequence(*(t64(rng.standard_normal(s))
                                 for s in ((5, 3), (12, 2), 8, (8, 2))), [3, 2])
    node = tape.nodes[-1]
    node.backward_fn(np.ones(out.shape))
    with pytest.raises(TapeConsumedError):
        node.backward_fn(np.ones(out.shape))


def test_lstm_sequence_frozen_inputs_under_a_tape_keep_no_bptt_state():
    """Under an active Tape, inputs of which none requires grad run forward-
    only: nothing records, the traced peak stays below one packed (4, N, H)
    gate buffer, which the recorded forward reaches, and the states are the
    recorded forward's bits."""
    rng = np.random.default_rng(15)
    lengths = [200] + list(rng.integers(1, 201, size=19))
    arrays = [rng.standard_normal(s) for s in ((sum(lengths), 8), (32, 32), 128, (128, 32))]
    gate_bytes = sum(lengths) * 128 * 8

    def traced(grad):
        inputs = [t64(a, grad) for a in arrays]
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with dc.Tape() as tape:
                out = dc.lstm_sequence(*inputs, lengths)
            return out.data, len(tape), tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    lean, lean_nodes, lean_peak = traced(False)
    full, full_nodes, full_peak = traced(True)
    assert (lean_nodes, full_nodes) == (0, 1)
    assert lean_peak < gate_bytes <= full_peak
    assert lean.tobytes() == full.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_in_place_on_strided_views(dtype):
    """`_sigmoid_` on a strided view gives the bits it gives on a contiguous
    copy, at every stride from 1 to 12 items."""
    for step in range(1, 13):
        buf = np.linspace(-3.0, 3.0, 9 * step).astype(dtype)
        view = buf[::step]
        want = view.copy()
        ops._sigmoid_(want)
        ops._sigmoid_(view)
        assert view.tobytes() == want.tobytes(), step


def gate_major(w, rows):
    """A (rows, 4H) weight with the gates side by side, as the time-major
    reference takes it, stacked gate-major as (4·rows, H)."""
    return w.reshape(rows, 4, w.shape[1] // 4).swapaxes(0, 1).reshape(4 * rows, -1)


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-frozen"])
@pytest.mark.parametrize("lengths,D,H", [
    ([37, 1, 118, 96], 64, 128),
    ([5, 3, 5, 1, 5], 64, 128),
    ([1, 3, 4], 2, 1),           # gate slabs of one value, 8 packed rows apart
], ids=["ragged", "ties", "one-unit"])
def test_lstm_sequence_matches_time_major_reference(lengths, D, H, x_grad):
    """The packed, gate-major op gives the states and every gradient of the
    time-major op it replaced (reference_ops), its weights re-laid, in
    float64 within 1e-12 of each result's largest entry: desk widths, clips
    given out of length order or of equal lengths, nonzero biases, with and
    without a gradient for x."""
    rng = np.random.default_rng(sum(lengths))
    x = rng.standard_normal((sum(lengths), D))
    wx = rng.uniform(-1, 1, size=(D, 4 * H)) / np.sqrt(H)
    wh = rng.uniform(-1, 1, size=(H, 4 * H)) / np.sqrt(H)
    b = rng.uniform(-0.5, 0.5, size=4 * H)
    weights = dc.Tensor(rng.standard_normal((sum(lengths), H)))
    results = []
    for op, layout in ((rops.time_major_lstm_sequence, lambda w, rows: w),
                       (dc.lstm_sequence, gate_major)):
        inputs = [t64(x, x_grad), t64(layout(wx, D)), t64(b), t64(layout(wh, H))]
        with dc.Tape():
            out = op(*inputs, lengths)
            grads = dc.backward(dc.sum_all(dc.mul(out, weights)))
        assert (inputs[0] in grads) is x_grad
        results.append([out.data, grads.get(inputs[0])] + [grads[t] for t in inputs[1:]])
    (want_out, want_dx, want_dwx, want_db, want_dwh), got = results
    wants = [want_out, want_dx, gate_major(want_dwx, D), want_db, gate_major(want_dwh, H)]
    for got_a, want_a in zip(got, wants):
        if want_a is None:
            assert got_a is None
            continue
        assert got_a.shape == want_a.shape
        np.testing.assert_allclose(got_a, want_a, rtol=0, atol=1e-12 * np.abs(want_a).max())


@pytest.mark.parametrize("index", [
    [0, 4],          # row 4 of 4
    [1, -2],         # below -1
    [2, -1, 2],      # row 2 taken twice
    [[0, 1]],        # not 1-D
])
def test_gather_rows_rejects_bad_index(index):
    with pytest.raises(ShapeMismatchError):
        dc.gather_rows(np.zeros((4, 3)), index)


def test_gather_rows_values_and_zero_rows():
    a = np.arange(12.0).reshape(4, 3)
    got = dc.gather_rows(a, [-1, 3, 0, -1, 1]).data
    np.testing.assert_array_equal(got, [[0, 0, 0], a[3], a[0], [0, 0, 0], a[1]])
    assert not np.any(np.signbit(got))


# -- equivalence with the kernels the strided ones replaced ----------------------


def shifted_gemm_conv2d(x, w, b, stride, padding):
    """conv2d's forward as a sum of KH·KW shifted GEMMs, for every C."""
    B, H, W, C = x.shape
    KH, KW, _, O = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    Ho = (H + 2 * padding - KH) // stride + 1
    Wo = (W + 2 * padding - KW) // stride + 1
    acc = np.zeros((B * Ho * Wo, O), dtype=x.dtype)
    for kh in range(KH):
        for kw in range(KW):
            xs = xp[:, kh:kh + stride * Ho:stride, kw:kw + stride * Wo:stride, :]
            acc += np.ascontiguousarray(xs).reshape(-1, C) @ w[kh, kw]
    return (acc + b).reshape(B, Ho, Wo, O)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_single_channel_conv2d_matches_shifted_gemms(stride, padding):
    rng = np.random.default_rng(stride)
    x = rng.standard_normal((3, 24, 16, 1)).astype(np.float32)
    w = (0.3 * rng.standard_normal((3, 3, 1, 8))).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    got = dc.conv2d(dc.Tensor(x), dc.Tensor(w), dc.Tensor(b), stride=stride, padding=padding).data
    want = shifted_gemm_conv2d(x, w, b, stride, padding)
    assert got.shape == want.shape and got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())


def im2col_conv1d(x, w, b=None, stride=1, padding=0):
    """The im2col conv1d that the stride-folded one replaced, on (L, C) rows:
    one (Lo, K·C) column matrix, kept for the backward, and one GEMM."""
    x, w = dc.as_tensor(x), dc.as_tensor(w)
    bias = dc.as_tensor(b) if b is not None else None
    L, C = x.data.shape
    K, _, O = w.data.shape
    Lp = L + 2 * padding
    Lo = (Lp - K) // stride + 1
    xp = np.pad(x.data, ((padding, padding), (0, 0))) if padding else x.data
    win = sliding_window_view(xp, K, axis=0)[::stride]      # (Lo, C, K)
    col = np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(Lo, K * C)
    wflat = w.data.reshape(K * C, O)
    out = col @ wflat
    if bias is not None:
        out = out + bias.data

    def bwd(g):
        dw = (col.T @ g).reshape(K, C, O)
        dx = None
        if x.requires_grad:
            dcol = (g @ wflat.T).reshape(Lo, K, C)
            dxp = np.zeros((Lp, C), dtype=x.dtype)
            for k in range(K):
                dxp[k:k + stride * Lo:stride] += dcol[:, k]
            dx = dxp[padding:padding + L] if padding else dxp
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=0)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _finish("conv1d", inputs, out, bwd)


@pytest.mark.parametrize("clips,w_shape,stride,padding", [
    ((1, 97, 64), (5, 64, 64), 1, 2),        # the SincNet stack convs
    ((1, 12800, 1), (251, 1, 64), 80, 0),    # the sinc layer
    ((3, 40, 4), (5, 4, 6), 1, 2),
    ((2, 1000, 1), (251, 1, 8), 80, 0),
    ((2, 31, 3), (7, 3, 5), 3, 1),           # K not a multiple of the stride
    ((2, 29, 2), (4, 2, 3), 4, 0),           # K equal to the stride
    ((1, 9, 2), (3, 2, 3), 5, 1),            # stride above K
], ids=["stack", "sinc", "stack-B3", "sinc-B2", "K7-s3", "K4-s4", "K3-s5"])
def test_conv1d_matches_im2col(clips, w_shape, stride, padding):
    """The stride-folded conv1d gives the im2col conv1d's output and its input,
    weight and bias gradients in float64, on `clips` (count, L, C) laid end
    to end as one (count·L, C) buffer."""
    n, L, C = clips
    rng = np.random.default_rng(L + stride)
    x_data = rng.standard_normal(clips).reshape(n * L, C)
    w_data = rng.standard_normal(w_shape) / np.sqrt(w_shape[0] * w_shape[1])
    b_data = rng.standard_normal(w_shape[2])
    results = []
    for op in (dc.conv1d, im2col_conv1d):
        x, w, b = t64(x_data), t64(w_data), t64(b_data)
        with dc.Tape():
            out = op(x, w, b, stride=stride, padding=padding)
            weights = dc.Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
            gmap = dc.backward(dc.sum_all(dc.mul(out, weights)))
        results.append([out.data] + [gmap[t] for t in (x, w, b)])
    for got, want in zip(*results):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_conv1d_and_max_pool1d_reject_a_batch_axis():
    """A (B, L, C) input, the layout before conv1d and max_pool1d took packed
    rows, fails with its shape named instead of being read as rows."""
    x = dc.Tensor(np.zeros((1, 40, 2)))
    with pytest.raises(ShapeMismatchError, match=r"\(1, 40, 2\)"):
        dc.conv1d(x, dc.Tensor(np.zeros((3, 2, 4))))
    with pytest.raises(ShapeMismatchError, match=r"\(1, 40, 2\)"):
        dc.max_pool1d(x, 2)


@pytest.mark.parametrize("lengths", [(23, 1), (1, 9), (40, 17)])
def test_conv1d_clips_end_to_end_each_get_their_own_rows(lengths):
    """Two clips laid end to end with `pad` zero rows between them, as
    SincNet's stack lays them, get from one padded conv1d the output rows
    and input gradient rows of each clip's own conv1d: the batch
    independence of the batch axis the op no longer has, in float64."""
    rng = np.random.default_rng(sum(lengths))
    K, C, O = 5, 3, 4
    pad = K // 2
    clips = [rng.standard_normal((n, C)) for n in lengths]
    w, b = t64(rng.standard_normal((K, C, O))), t64(rng.standard_normal(O))
    starts = (0, lengths[0] + pad)
    packed = np.zeros((starts[1] + lengths[1], C))
    for start, clip in zip(starts, clips):
        packed[start:start + clip.shape[0]] = clip
    rows = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])
    x = t64(packed)
    with dc.Tape():
        out = dc.gather_rows(dc.conv1d(x, w, b, padding=pad), rows)
        weights = np.cos(np.arange(out.size)).reshape(out.shape)
        dx = dc.backward(dc.sum_all(dc.mul(out, dc.Tensor(weights))))[x]
    for start, clip, n, at in zip(starts, clips, lengths, (0, lengths[0])):
        xi = t64(clip)
        with dc.Tape():
            own = dc.conv1d(xi, w, b, padding=pad)
            dxi = dc.backward(dc.sum_all(dc.mul(own, dc.Tensor(weights[at:at + n]))))[xi]
        np.testing.assert_allclose(out.data[at:at + n], own.data, rtol=0,
                                   atol=1e-12 * np.abs(own.data).max())
        np.testing.assert_allclose(dx[start:start + n], dxi, rtol=0,
                                   atol=1e-12 * np.abs(dxi).max())


def window_conv2d(x, w, b=None, stride=1, padding=0):
    """The conv2d that the folded-rows kernel replaced: an im2col forward for
    C = 1, else a sum of KH·KW GEMMs over copied strided windows of the padded
    input; the backward copies the same window per tap for every C."""
    x, w = dc.as_tensor(x), dc.as_tensor(w)
    bias = dc.as_tensor(b) if b is not None else None
    B, H, W, C = x.data.shape
    KH, KW, _, O = w.data.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho = (Hp - KH) // stride + 1
    Wo = (Wp - KW) // stride + 1
    xp = (np.pad(x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
          if padding else x.data)

    def window(kh, kw):
        return xp[:, kh:kh + stride * Ho:stride, kw:kw + stride * Wo:stride, :]

    if C == 1:
        col = np.empty((B, Ho, Wo, KH * KW), dtype=x.dtype)
        for kh in range(KH):
            for kw in range(KW):
                col[..., kh * KW + kw] = window(kh, kw)[..., 0]
        acc = col.reshape(-1, KH * KW) @ w.data.reshape(KH * KW, O)
    else:
        acc = np.zeros((B * Ho * Wo, O), dtype=x.dtype)
        for kh in range(KH):
            for kw in range(KW):
                acc += np.ascontiguousarray(window(kh, kw)).reshape(-1, C) @ w.data[kh, kw]
    if bias is not None:
        acc += bias.data
    out = acc.reshape(B, Ho, Wo, O)

    def bwd(g):
        gflat = np.ascontiguousarray(g).reshape(B * Ho * Wo, O)
        dw = np.zeros_like(w.data)
        dxp = np.zeros((B, Hp, Wp, C), dtype=x.dtype)
        for kh in range(KH):
            for kw in range(KW):
                hs = slice(kh, kh + stride * Ho, stride)
                ws = slice(kw, kw + stride * Wo, stride)
                dw[kh, kw] = np.ascontiguousarray(xp[:, hs, ws, :]).reshape(-1, C).T @ gflat
                dxp[:, hs, ws, :] += (gflat @ w.data[kh, kw].T).reshape(B, Ho, Wo, C)
        dx = dxp[:, padding:padding + H, padding:padding + W, :]
        if bias is None:
            return dx, dw
        return dx, dw, gflat.sum(axis=0)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _finish("conv2d", inputs, out, bwd)


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("C", [1, 3])
def test_conv2d_matches_window_conv2d(C, stride, padding):
    """The folded-rows conv2d gives the per-tap window conv2d's output and its
    input, weight and bias gradients in float64, on 7 x 5 inputs (divisible
    by neither stride 2 nor 3), for 3 x 3 and 3 x 2 kernels and a kernel as
    large as the padded input (one output pixel), at B = 1 and 3."""
    rng = np.random.default_rng(100 * C + 10 * stride + padding)
    H, W, O = 7, 5, 4
    for KH, KW in ((3, 3), (3, 2), (H + 2 * padding, W + 2 * padding)):
        for B in (1, 3):
            x_data = rng.standard_normal((B, H, W, C))
            w_data = rng.standard_normal((KH, KW, C, O)) / np.sqrt(KH * KW * C)
            b_data = rng.standard_normal(O)
            results = []
            for op in (dc.conv2d, window_conv2d):
                x, w, b = t64(x_data), t64(w_data), t64(b_data)
                with dc.Tape():
                    out = op(x, w, b, stride=stride, padding=padding)
                    weights = dc.Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
                    gmap = dc.backward(dc.sum_all(dc.mul(out, weights)))
                results.append([out.data] + [gmap[t] for t in (x, w, b)])
            for got, want in zip(*results):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# -- tap sums through numpy's own ?gemm with β = 1 -------------------------------


class GemmSpy:
    """Stands in for one of ops._GEMM's routines: counts calls, forwards them."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture
def gemm_calls(monkeypatch):
    """Spies on every ?gemm _matmul_add calls; returns a function giving the
    call count so far."""
    spies = {dt: GemmSpy(fn) for dt, fn in ops._GEMM.items()}
    monkeypatch.setattr(ops, "_GEMM", spies)
    return lambda: sum(spy.calls for spy in spies.values())


def matmul_add_case(rng, dtype, m, k, n, layout):
    """(a, b, out) of one layout: 'plain', 'b_transposed' (b a transposed
    view) or 'out_rows' (out a row slice of a larger array)."""
    a = rng.standard_normal((m, k)).astype(dtype)
    if layout == "b_transposed":
        b = rng.standard_normal((n, k)).astype(dtype).T
    else:
        b = rng.standard_normal((k, n)).astype(dtype)
    if layout == "out_rows":
        out = rng.standard_normal((m + 5, n)).astype(dtype)[2:2 + m]
    else:
        out = rng.standard_normal((m, n)).astype(dtype)
    return a, b, out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["plain", "b_transposed", "out_rows"])
@pytest.mark.parametrize("m,k,n", [(37, 16, 8), (200, 64, 64), (1, 9, 6), (9, 7, 1), (12, 1, 5)])
def test_matmul_add_matches_matmul(gemm_calls, dtype, layout, m, k, n):
    """_matmul_add(a, b, out) leaves out as `out += a @ b` does, bit for bit,
    and runs one ?gemm unless m or n is 1; nothing else of out's base moves."""
    a, b, out = matmul_add_case(np.random.default_rng(m * k * n), dtype, m, k, n, layout)
    base = out.base if out.base is not None else out
    want = base.copy()
    want_out = want[2:2 + m] if layout == "out_rows" else want
    want_out += a @ b
    _matmul_add(a, b, out)
    assert base.tobytes() == want.tobytes()
    assert gemm_calls() == (1 if ops._GEMM and m > 1 and n > 1 else 0)


def test_matmul_add_falls_back_on_unsafe_layouts(gemm_calls):
    """A broadcast (stride 0) input, an out that overlaps an input and mixed
    dtypes each take `out += a @ b`, and give its result."""
    rng = np.random.default_rng(3)
    buf = rng.standard_normal((20, 14)).astype(np.float32)
    cases = [
        (np.broadcast_to(rng.standard_normal(6).astype(np.float32), (20, 6)),
         rng.standard_normal((6, 5)).astype(np.float32), np.zeros((20, 5), np.float32)),
        (buf[:, :6], rng.standard_normal((6, 8)).astype(np.float32), buf[:, 6:]),
        (rng.standard_normal((20, 6)), rng.standard_normal((6, 5)).astype(np.float32),
         np.zeros((20, 5))),
    ]
    for a, b, out in cases:
        want = out.copy()
        want += np.array(a) @ b
        _matmul_add(a, b, out)
        assert out.tobytes() == want.tobytes()
    assert gemm_calls() == 0


CONV_CASES = [
    (dc.conv1d, (400, 1), (251, 1, 8), dict(stride=80)),       # folds to 80 channels
    (dc.conv1d, (120, 6), (5, 6, 7), dict(padding=2)),          # 3 clips of 40 rows
    (dc.conv2d, (4, 12, 8, 8), (3, 3, 8, 16), dict(padding=1)),
    (dc.conv2d, (2, 9, 7, 3), (3, 3, 3, 4), dict(stride=2, padding=1)),
    (dc.conv2d, (2, 10, 6, 1), (3, 3, 1, 8), dict(padding=1)),   # im2col forward, n = 1 backward
]


def conv_results(op, x_data, w_data, b_data, kwargs):
    x, w, b = (dc.Tensor(d, requires_grad=True) for d in (x_data, w_data, b_data))
    with dc.Tape():
        out = op(x, w, b, **kwargs)
        weights = dc.Tensor(np.cos(np.arange(out.size)).reshape(out.shape).astype(np.float32))
        gmap = dc.backward(dc.sum_all(dc.mul(out, weights)))
    return [out.data] + [gmap[t] for t in (x, w, b)]


@pytest.mark.parametrize("op,x_shape,w_shape,kwargs", CONV_CASES)
def test_conv_blas_and_fallback_agree_bit_for_bit(monkeypatch, op, x_shape, w_shape, kwargs):
    """conv1d and conv2d give the same float32 output and input, weight and
    bias gradients whether their tap sums run through ?gemm with β = 1 or,
    with no ?gemm found, as `out += a @ b`."""
    rng = np.random.default_rng(sum(x_shape))
    data = (rng.standard_normal(x_shape).astype(np.float32),
            (0.3 * rng.standard_normal(w_shape)).astype(np.float32),
            rng.standard_normal(w_shape[-1]).astype(np.float32))
    blas = conv_results(op, *data, kwargs)
    monkeypatch.setattr(ops, "_GEMM", {})
    fallback = conv_results(op, *data, kwargs)
    for got, want in zip(blas, fallback):
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def test_blas_tap_sums_active_with_scipy_openblas(gemm_calls):
    """Where numpy is built on the 64-bit-int scipy-openblas (its PyPI
    wheels), _matmul_add finds its ?gemm for both float types and the conv
    kernel uses it, forward and backward: a silent fallback would keep every
    result and lose the speed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 prints its config only
        pytest.skip("numpy reports no build configuration")
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in blas.get(
            "openblas configuration", ""):
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not 64-bit-int scipy-openblas")
    assert set(ops._GEMM) == {np.dtype(np.float32), np.dtype(np.float64)}
    op, x_shape, w_shape, kwargs = CONV_CASES[2]
    rng = np.random.default_rng(0)
    conv_results(op, rng.standard_normal(x_shape).astype(np.float32),
                 rng.standard_normal(w_shape).astype(np.float32),
                 np.zeros(w_shape[-1], np.float32), kwargs)
    assert gemm_calls() == 8 + 9    # the taps after the first forward, all 9 into d input


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bias_gradient_einsum_equals_axis_sum(dtype):
    """The conv bias gradient, one einsum pass over the (rows, O) gradient,
    equals the axis-0 sum it replaced bit for bit, on the eight desk `vgg`
    conv output shapes of a 50-window batch."""
    rng = np.random.default_rng(7)
    for shape in [(96, 64, 8), (48, 32, 16), (24, 16, 32), (24, 16, 32),
                  (12, 8, 64), (12, 8, 64), (6, 4, 64), (6, 4, 64)]:
        g = rng.standard_normal((50 * shape[0] * shape[1], shape[2])).astype(dtype)
        assert np.einsum("ij->j", g).tobytes() == g.sum(axis=0).tobytes()


# -- images that share their zero border, against the kernel that padded each -----


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("C", [1, 3, 8])
def test_conv2d_shared_border_matches_padded_kernel(C, stride, padding):
    """conv2d, whose images share their zero border, gives the results of the
    kernel that padded every image on all four sides (reference_ops), at
    B = 1, 2 and 5 on 6 x 4, 12 x 8 and 7 x 5 maps, with 3 x 3, 3 x 2 and
    input-sized kernels: in float64 all within 1e-12 of their largest entry,
    in float32 the output, the input gradient and the bias gradient byte for
    byte. The weight gradient also sums the zero gradient rows of another
    grid, so in float32 it is held to 8 ulps of its largest entry. So is the
    input gradient with one folded channel (C = 1 at stride 1): the
    reference's per-tap products are (N, O) @ (O, 1), which numpy runs as a
    matrix-vector product whose last few rows round by their distance from
    row N, where the kernel runs one (N, taps) product."""
    rng = np.random.default_rng(100 * C + 10 * stride + padding)
    exact = (0, 1, 3) if C * stride > 1 else (0, 3)
    for B in (1, 2, 5):
        for H, W in ((6, 4), (12, 8), (7, 5)):
            for KH, KW in ((3, 3), (3, 2), (H + 2 * padding, W + 2 * padding)):
                for dtype in (np.float32, np.float64):
                    data = (rng.standard_normal((B, H, W, C)).astype(dtype),
                            (rng.standard_normal((KH, KW, C, 4))
                             / np.sqrt(KH * KW * C)).astype(dtype),
                            rng.standard_normal(4).astype(dtype))
                    kwargs = dict(stride=stride, padding=padding)
                    results = [conv_results(f, *data, kwargs)
                               for f in (dc.conv2d, rops.padded_conv2d)]
                    for i, (got, want) in enumerate(zip(*results)):
                        assert got.shape == want.shape and got.dtype == want.dtype == dtype
                        if dtype == np.float32 and i in exact:
                            assert got.tobytes() == want.tobytes(), (B, H, W, KH, KW, i)
                        else:
                            scale = 1e-12 if dtype == np.float64 else 8 * np.finfo(dtype).eps
                            np.testing.assert_allclose(got, want, rtol=0,
                                                       atol=scale * np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("C", [1, 3, 8])
@pytest.mark.parametrize("stride,K,padding", [(1, 3, 0), (1, 5, 2), (2, 5, 1), (3, 7, 2),
                                              (3, 3, 0), (80, 251, 0), (80, 251, 125)])
def test_conv1d_shared_border_matches_padded_kernel(dtype, C, stride, K, padding):
    """conv1d is one image one pixel wide, so it computes the rows it did
    before images shared their zero border: every result is byte-equal,
    its weight gradient included, for clips packed end to end with
    `padding` zero rows between them. The one exception is the input
    gradient with one folded channel (C = 1 at stride 1): the kernel runs
    it as one (N, taps) product, where the reference runs a matrix-vector
    product per tap, so it is held to 8 ulps (float32) or 1e-12 (float64)
    of its largest entry, as conv2d's is."""
    rng = np.random.default_rng(1000 * C + stride + K + padding)
    lengths = (K + 37, K + 1, 2 * K + 5)
    starts = np.cumsum((0,) + tuple(n + padding for n in lengths[:-1]))
    x = np.zeros((starts[-1] + lengths[-1], C), dtype=dtype)
    for start, n in zip(starts, lengths):
        x[start:start + n] = rng.standard_normal((n, C))
    data = (x, (rng.standard_normal((K, C, 5)) / np.sqrt(K * C)).astype(dtype),
            rng.standard_normal(5).astype(dtype))
    kwargs = dict(stride=stride, padding=padding)
    results = [conv_results(f, *data, kwargs) for f in (dc.conv1d, rops.padded_conv1d)]
    for i, (got, want) in enumerate(zip(*results)):
        if i == 1 and C * stride == 1:
            scale = 1e-12 if dtype == np.float64 else 8 * np.finfo(dtype).eps
            np.testing.assert_allclose(got, want, rtol=0, atol=scale * np.abs(want).max())
        else:
            assert got.tobytes() == want.tobytes()


def test_single_channel_conv2d_input_gradient_is_batch_independent():
    """With one folded channel (C = 1 at stride 1) image 0's float32 input
    gradient is the same bits in a batch of 1 and in a batch of 3, over 40
    seeded map sizes and widths: one (N, taps) product has no matrix-vector
    rows that round by their distance from the batch's last row."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        H, W = (int(n) for n in rng.integers(4, 41, size=2))
        O = int(rng.integers(2, 17))
        x = rng.standard_normal((3, H, W, 1)).astype(np.float32)
        w = (rng.standard_normal((3, 3, 1, O)) / 3).astype(np.float32)
        g = rng.standard_normal((3, H, W, O)).astype(np.float32)
        dx = []
        for B in (1, 3):
            xt = dc.Tensor(x[:B], requires_grad=True)
            with dc.Tape():
                out = dc.conv2d(xt, dc.Tensor(w, requires_grad=True), padding=1)
                dx.append(dc.backward(dc.sum_all(dc.mul(out, dc.Tensor(g[:B]))))[xt][0])
        assert dx[0].tobytes() == dx[1].tobytes(), (seed, H, W, O)


@pytest.mark.parametrize("K,padding", [(3, 1), (3, 0), (5, 2), (1, 0)])
def test_single_channel_conv2d_input_gradient_matches_padded_kernel(K, padding):
    """The single-channel input gradient, one (N, taps) product added into
    its rows tap by tap, is the per-tap sum of the kernel that padded every
    image (reference_ops) in float64, within 1e-12 of its largest entry, at
    B = 1 and 4 on desk conv1's 96 x 64 maps."""
    rng = np.random.default_rng(K + padding)
    for B in (1, 4):
        data = (rng.standard_normal((B, 96, 64, 1)),
                rng.standard_normal((K, K, 1, 8)) / K, rng.standard_normal(8))
        kwargs = dict(stride=1, padding=padding)
        got, want = (conv_results(f, *data, kwargs)[1] for f in (dc.conv2d, rops.padded_conv2d))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_desk_vgg_grids_share_one_zero_row_and_column_per_image(monkeypatch):
    """Each desk `vgg` conv (3 x 3, padding 1) computes (H + 1)(W + 1) grid
    rows per image, one zero row and one zero column shared with the next
    image and the next pixel row, and stops at the last kept row; an image
    with a zero border of its own would take (H + 2)(W + 2). The spy counts
    the rows of every grid product: the per-tap `_matmul_add` calls and the
    `np.matmul` calls, which conv1 (one channel) runs as one product forward
    and one for the input gradient."""
    gemm_rows = []

    def spy(product):
        def counted(a, b, *args, **kwargs):
            gemm_rows.append(a.shape[0])
            return product(a, b, *args, **kwargs)
        return counted

    monkeypatch.setattr(ops, "_matmul_add", spy(_matmul_add))
    monkeypatch.setattr(np, "matmul", spy(np.matmul))
    (H, W), C = (96, 64), 1
    for i, O in enumerate(EncoderSpec("vgg", "desk").dims.vgg_channels):
        n = {}
        for B in (1, 2):
            gemm_rows.clear()
            x = dc.Tensor(np.ones((B, H, W, C), np.float32), requires_grad=True)
            w = dc.Tensor(np.ones((3, 3, C, O), np.float32), requires_grad=True)
            with dc.Tape():
                dc.backward(dc.sum_all(dc.conv2d(x, w, padding=1)))
            assert len(set(gemm_rows)) == 1 and len(gemm_rows) >= (2 if C == 1 else 18)
            n[B] = gemm_rows[0]
        assert n[2] - n[1] == (H + 1) * (W + 1), f"conv{i + 1}"
        assert n[1] == (H - 1) * (W + 1) + W, f"conv{i + 1}"
        if i in _POOL_AFTER:
            H, W = H // 2, W // 2
        C = O


def argmax_max_pool1d(x, g, k):
    """max_pool1d by argmax over an (L2, k, C) reshape; g goes to the argmax."""
    L, C = x.shape
    L2 = L // k
    v = x[:L2 * k].reshape(L2, k, C)
    z = np.zeros_like(v)
    np.put_along_axis(z, v.argmax(axis=1)[:, None, :], g[:, None, :], axis=1)
    dx = np.zeros_like(x)
    dx[:L2 * k] = z.reshape(L2 * k, C)
    return v.max(axis=1), dx


def argmax_max_pool2d(x, g, k):
    """max_pool2d by argmax over the k·k window entries; g goes to the argmax."""
    B, H, W, C = x.shape
    H2, W2 = H // k, W // k
    v = x.reshape(B, H2, k, W2, k, C)
    vt = np.ascontiguousarray(v.transpose(0, 1, 3, 5, 2, 4)).reshape(B, H2, W2, C, k * k)
    z = np.zeros_like(vt)
    np.put_along_axis(z, vt.argmax(axis=-1)[..., None], g[..., None], axis=-1)
    dx = z.reshape(B, H2, W2, C, k, k).transpose(0, 1, 4, 2, 5, 3).reshape(B, H, W, C)
    return v.max(axis=(2, 4)), dx


@pytest.mark.parametrize("op,reference,shape,k", [
    (dc.max_pool1d, argmax_max_pool1d, (598, 16), 3),     # 3 clips of 199 rows, a remainder row
    (dc.max_pool1d, argmax_max_pool1d, (24, 4), 2),       # 2 clips of 12 rows
    (dc.max_pool2d, argmax_max_pool2d, (2, 12, 8, 4), 2),
    (dc.max_pool2d, argmax_max_pool2d, (2, 9, 6, 3), 3),
], ids=["pool1d-k3-remainder", "pool1d-k2", "pool2d-k2", "pool2d-k3"])
def test_max_pool_matches_argmax_kernels(op, reference, shape, k):
    """On ReLU outputs, where most windows tie at zero, the strided kernels
    give the argmax kernels' outputs and gradients bit for bit."""
    rng = np.random.default_rng(len(shape) + k)
    x = np.maximum(rng.standard_normal(shape) - 0.5, 0).astype(np.float32)
    x.reshape(-1)[::7] = 1.5                 # equal maxima inside some windows too
    with dc.Tape() as tape:
        out = op(dc.Tensor(x, requires_grad=True), k)
        node = tape.nodes[-1]
    g = rng.standard_normal(out.shape).astype(np.float32)
    want_out, want_dx = reference(x, g, k)
    (dx,) = node.backward_fn(g)
    assert out.data.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("op,reference,shape", [
    (dc.max_pool1d, argmax_max_pool1d, (19, 3)),          # 2 clips of 9 rows, a remainder row
    (dc.max_pool2d, argmax_max_pool2d, (2, 4, 6, 3)),
], ids=["pool1d", "pool2d"])
def test_max_pool_negative_gradient_on_tied_zeros(op, reference, shape):
    """All gradients are negative. Most windows tie at zero and send theirs to
    the first entry; the rest hold their max in the last entry, so the
    earlier entries miss. Every entry that gets no gradient, the pool1d
    remainder included, is +0.0, not -0.0, as in the argmax kernels."""
    x = np.zeros(shape, dtype=np.float32)
    if op is dc.max_pool1d:
        x[1::4] = 1.0
    else:
        x[:, 1::2, 1::4] = 1.0
    with dc.Tape() as tape:
        out = op(dc.Tensor(x, requires_grad=True), 2)
        node = tape.nodes[-1]
    g = -np.arange(1, out.size + 1, dtype=np.float32).reshape(out.shape)
    _, want = reference(x, g, 2)
    (dx,) = node.backward_fn(g)
    assert dx.tobytes() == want.tobytes()
    assert np.count_nonzero(dx) == g.size
    assert not np.any(np.signbit(dx[dx == 0]))


# -- Adam ----------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    p = {"w": dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    st = dc.AdamState.for_params(p)
    assert dc.adam_step(p, {"w": np.zeros(2)}, st, lr=1e-3) is None
    np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])
    assert st.step == 1


def test_adam_first_step_matches_hand_formula():
    # p=0, g=1, lr=1e-5: bias-corrected first step is -lr / (1 + eps)
    p = {"w": dc.Tensor(np.array([0.0]), requires_grad=True)}
    st = dc.AdamState.for_params(p)
    dc.adam_step(p, {"w": np.array([1.0])}, st, lr=1e-5)
    assert p["w"].data[0] == pytest.approx(-1e-5, abs=1e-9)


def test_adam_constant_gradient_monotone():
    p = {"w": dc.Tensor(np.array([0.5]), requires_grad=True)}
    st = dc.AdamState.for_params(p)
    prev = p["w"].data[0]
    for _ in range(100):
        dc.adam_step(p, {"w": np.array([1.0])}, st, lr=1e-3)
        assert p["w"].data[0] < prev
        prev = p["w"].data[0]


def test_adam_shape_mismatch():
    p = {"w": dc.Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)}
    st = dc.AdamState.for_params(p)
    with pytest.raises(ShapeMismatchError):
        dc.adam_step(p, {"w": np.zeros(3)}, st, lr=1e-3)
    with pytest.raises(ShapeMismatchError):
        dc.adam_step(p, {}, st, lr=1e-3)


def allocating_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """`adam_step` as it was before it updated in place: new m and v arrays
    and a temporary per sub-expression."""
    t = state.step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = np.asarray(grads[name])
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)
    state.step = t


@pytest.mark.parametrize("kind", ["vgg", "lstm", "sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_adam_in_place_matches_allocating_step(kind):
    """Five steps over a desk encoder's parameters leave parameters, m and v
    byte-equal to the allocating update, and m and v stay the same arrays."""
    from protoaudio import EncoderSpec, FrontendConfig, build_encoder

    params = build_encoder(EncoderSpec(kind, "desk"), FrontendConfig(), seed=4).params
    ref = {name: dc.Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    state, ref_state = dc.AdamState.for_params(params), dc.AdamState.for_params(ref)
    moments = [id(a) for a in (*state.m.values(), *state.v.values())]
    rng = np.random.default_rng(21)
    for step in range(5):
        grads = {}
        for name, p in params.items():
            g = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-8, 1, size=p.shape)
            grads[name] = np.where(rng.random(p.shape) < 0.1, 0.0, g).astype(p.dtype)
        dc.adam_step(params, grads, state, lr=10.0 ** -(step + 1))
        allocating_adam_step(ref, grads, ref_state, lr=10.0 ** -(step + 1))
    assert state.step == ref_state.step == 5
    assert [id(a) for a in (*state.m.values(), *state.v.values())] == moments
    for name, p in params.items():
        for got, want in ((p.data, ref[name].data), (state.m[name], ref_state.m[name]),
                          (state.v[name], ref_state.v[name])):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name


# -- finite-difference gradient checks (compact here; the full 10-instance
#    sweep lives in the acceptance suite) ---------------------------------------


def gradcheck_cases(rng):
    """(name, op callable, list of input arrays) triples for every op."""
    u = lambda *s: rng.uniform(-2.0, 2.0, size=s)
    off = lambda *s: rng.uniform(0.3, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    pos = lambda *s: rng.uniform(0.5, 3.0, size=s)
    cases = [
        ("add", dc.add, [u(3, 4), u(3, 4)]),
        ("add_bias", dc.add, [u(3, 4), u(4)]),
        ("mul", dc.mul, [u(4, 3), u(4, 3)]),
        ("add_scalar", lambda a: rops.add_scalar(a, 1.7), [u(3, 3)]),
        ("mul_scalar", lambda a: dc.mul_scalar(a, -2.3), [u(3, 3)]),
        ("matmul", dc.matmul, [u(3, 4), u(4, 2)]),
        ("relu", dc.relu, [off(4, 4)]),
        ("sigmoid", rops.sigmoid, [u(3, 5)]),
        ("tanh", rops.tanh, [u(3, 5)]),
        ("absval", rops.absval, [off(4, 3)]),
        ("log", rops.log, [pos(3, 4)]),
        ("log_abs", lambda a: dc.log_abs(a, 0.2), [off(4, 3)]),
        ("sum_all", dc.sum_all, [u(3, 4)]),
        ("mean_pool0", lambda a: dc.mean_pool(a, 0), [u(4, 3)]),
        ("mean_pool1", lambda a: dc.mean_pool(a, 1), [u(2, 5, 3)]),
        ("segment_mean", lambda a: dc.segment_mean(a, [2, 3, 1]), [u(6, 4)]),
        ("concat", lambda a, b: dc.concat([a, b], axis=0), [u(2, 3), u(4, 3)]),
        ("reshape", lambda a: dc.reshape(a, (6, 2)), [u(3, 4)]),
        ("slice_rows", lambda a: dc.slice_rows(a, 1, 4), [u(6, 3)]),
        ("pad_rows", lambda a: rops.pad_rows(a, 7), [u(4, 3)]),
        ("softmax", dc.softmax, [u(4, 5)]),
        ("squared_euclidean", dc.squared_euclidean, [u(4, 3), u(5, 3)]),
        ("cross_entropy", lambda a: dc.cross_entropy(a, np.array([0, 2, 1])), [u(3, 4)]),
        ("conv1d", lambda x, w, b: dc.conv1d(x, w, b, stride=2, padding=1),
         [u(22, 3), u(5, 3, 4), u(4)]),
        ("conv1d_plain", lambda x, w: dc.conv1d(x, w), [u(9, 2), u(3, 2, 3)]),
        ("conv1d_K7_stride3", lambda x, w, b: dc.conv1d(x, w, b, stride=3, padding=1),
         [u(28, 2), u(7, 2, 3), u(3)]),
        ("gather_rows", lambda a: dc.gather_rows(a, [2, -1, 0, 5, -1, 3]), [u(6, 3)]),
        ("conv2d", lambda x, w, b: dc.conv2d(x, w, b, stride=1, padding=1),
         [u(2, 4, 6, 3), u(3, 3, 3, 4), u(4)]),
        ("conv2d_strided", lambda x, w: dc.conv2d(x, w, stride=2),
         [u(1, 7, 5, 2), u(3, 3, 2, 3)]),
        ("conv2d_single_channel", lambda x, w, b: dc.conv2d(x, w, b, stride=2, padding=1),
         [u(2, 5, 4, 1), u(3, 3, 1, 2), u(2)]),
        ("conv2d_3x2_stride2", lambda x, w, b: dc.conv2d(x, w, b, stride=2, padding=1),
         [u(2, 6, 5, 2), u(3, 2, 2, 3), u(3)]),
        ("max_pool1d", lambda x: dc.max_pool1d(x, 2),      # 2 clips of 7 rows, a remainder row
         [spread(rng, (15, 3))]),
        ("max_pool2d", lambda x: dc.max_pool2d(x, 2), [spread(rng, (2, 4, 6, 3))]),
        ("sinc_kernel",      # the last filter has f1 clamped, the one before f2
         lambda tl, tb: dc.sinc_kernel(tl, tb, 0.01, np.hamming(15)),
         [np.array([0.05, -0.12, 0.3, -0.6]), np.array([-0.1, 0.2, 0.35, 0.05])]),
        ("lstm_sequence", lambda x, wx, b, wh: dc.lstm_sequence(x, wx, b, wh, [2, 4, 1]),
         [u(7, 5), u(20, 3), u(12), u(12, 3)]),
    ]
    return cases


def spread(rng, shape):
    """Random values with distinct magnitudes so pooling argmaxes are stable."""
    n = int(np.prod(shape))
    base = rng.permutation(n).astype(np.float64)
    return ((base / n) * 4.0 - 2.0).reshape(shape) + rng.uniform(-0.01, 0.01, size=shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_abs_matches_abs_add_log_chain(dtype):
    """log_abs's output and input gradient equal, byte for byte, those of the
    absval -> add_scalar -> log chain it replaced in SincNet's front end, on
    both signs over eleven decades, exact 0.0 and -0.0, and ±eps itself; it
    records one tape node where the chain recorded three."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((40, 64)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(40, 64))
    x[0, :4] = [0.0, -0.0, 1e-6, -1e-6]
    x = x.astype(dtype)
    weights = dc.Tensor(rng.standard_normal(x.shape).astype(dtype))
    results = []
    for build in (lambda a: dc.log_abs(a, 1e-6),
                  lambda a: rops.log(rops.add_scalar(rops.absval(a), 1e-6))):
        a = dc.Tensor(x, requires_grad=True)
        with dc.Tape() as tape:
            out = build(a)
            nodes = len(tape)
            grads = dc.backward(dc.sum_all(dc.mul(out, weights)))
        results.append((nodes, out.data, grads[a]))
    assert (results[0][0], results[1][0]) == (1, 3)
    for new, old in zip(results[0][1:], results[1][1:]):
        assert new.dtype == old.dtype == dtype
        assert new.tobytes() == old.tobytes()
    assert np.all(results[0][2][0, :2] == 0.0)


def test_gradcheck_rejects_a_gradient_not_in_its_input_shape():
    def double_flat_grad(a):
        return _finish("double", (a,), 2.0 * a.data, lambda g: ((2.0 * g).reshape(-1),))

    with pytest.raises(dc.GradcheckFailure, match=r"gradient shape \(6,\), input shape \(2, 3\)"):
        dc.gradcheck(double_flat_grad, [np.ones((2, 3))], np.random.default_rng(0))


def test_gradcheck_every_op_smoke():
    rng = np.random.default_rng(2024)
    names = set()
    for name, fn, arrays in gradcheck_cases(rng):
        dc.gradcheck(fn, arrays, rng)
        names.add(name)
    # every declared differentiable op and test-local op appears at least once
    for op in dc.DIFFERENTIABLE_OPS + rops.TEST_OPS:
        assert any(n == op or n.startswith(op) for n in names), f"no gradcheck case for {op}"


def test_every_differentiable_op_has_a_caller_in_the_package():
    """diffcore lists only ops the program runs: every name in
    DIFFERENTIABLE_OPS is called in the package's source outside
    diffcore/ops.py and diffcore/__init__.py (gradcheck.py counts)."""
    package = Path(dc.__file__).resolve().parent.parent
    defining = {package / "diffcore" / "ops.py", package / "diffcore" / "__init__.py"}
    called = set()
    for path in sorted(package.rglob("*.py")):
        if path in defining:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert sorted(set(dc.DIFFERENTIABLE_OPS) - called) == []


# -- sinc_kernel against the clamp chain it took in --------------------------------


def chain_clip(a, lo, hi):
    """The `clip` op of the chain: the gradient passes unclamped entries only."""
    def bwd(g):
        return (g * ((a.data >= lo) & (a.data <= hi)),)

    return _finish("clip", (a,), np.clip(a.data, lo, hi), bwd)


def chain_transpose(a):
    def bwd(g):
        return (g.T,)

    return _finish("transpose", (a,), a.data.T.copy(), bwd)


def chain_kernels(f1, f2, kernel_len, window):
    """The (F, kernel_len) band-pass kernels of clamped cutoffs f1 and f2."""
    n = (np.arange(kernel_len) - (kernel_len - 1) // 2).astype(f1.dtype)
    win = np.asarray(window, dtype=f1.dtype)

    def lowpass(f):
        return 2.0 * f[:, None] * np.sinc(2.0 * f[:, None] * n[None, :])

    def bwd(g):
        gw = g * win[None, :]
        two_pi_n = 2.0 * np.pi * n[None, :]
        d2 = (gw * 2.0 * np.cos(two_pi_n * f2.data[:, None])).sum(axis=1)
        d1 = -(gw * 2.0 * np.cos(two_pi_n * f1.data[:, None])).sum(axis=1)
        return d1, d2

    out = (lowpass(f2.data) - lowpass(f1.data)) * win[None, :]
    return _finish("sinc_kernel", (f1, f2), out, bwd)


def chain_sinc_weight(theta_low, theta_band, min_band, window):
    """SincNet's conv weight as its encoder built it before the clamp moved
    into `sinc_kernel`: six clamp nodes, the kernels, a transpose and a
    reshape, with the floor rounded to the parameters' dtype."""
    floor = float(theta_low.dtype.type(min_band))
    f1 = chain_clip(rops.absval(theta_low), 0.0, 0.5 - floor)
    f2 = chain_clip(dc.add(f1, rops.add_scalar(rops.absval(theta_band), floor)), 0.0, 0.5)
    kernels = chain_transpose(chain_kernels(f1, f2, len(window), window))
    return dc.reshape(kernels, (len(window), 1, theta_low.shape[0]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sinc_kernel_matches_clamp_chain(dtype):
    """Kernels and θ gradients equal those of the clamp chain, kernels and
    transpose that the op replaced: byte for byte in float32, to 1e-12 of the
    largest entry in float64. Desk size (64 filters of 251 taps, a 1 Hz floor
    at 16 kHz), both signs of both parameters, and filters clamped at
    f1 = 0.5 - floor (one of them exactly there) and at f2 = 0.5."""
    rng = np.random.default_rng(21)
    F, K, min_band = 64, 251, 1.0 / 16000
    theta_low = rng.uniform(0.001, 0.45, size=F)
    theta_band = rng.uniform(0.001, 0.1, size=F)
    theta_low[:6] = rng.uniform(0.5, 0.8, size=6)          # f1 clamped, so f2 too
    theta_band[6:12] = rng.uniform(0.1, 0.6, size=6)
    theta_low[6:12] = 0.5 - theta_band[6:12] / 2           # f2 clamped
    theta_low *= rng.choice([-1.0, 1.0], size=F)
    theta_band *= rng.choice([-1.0, 1.0], size=F)
    theta_low, theta_band = theta_low.astype(dtype), theta_band.astype(dtype)
    theta_low[12] = dtype(0.5) - dtype(min_band)           # f1 exactly at its clamp, f2 past
    window, weights = np.hamming(K), dc.Tensor(rng.standard_normal((K, 1, F)).astype(dtype))
    results = []
    for build in (dc.sinc_kernel, chain_sinc_weight):
        tl, tb = dc.Tensor(theta_low, requires_grad=True), dc.Tensor(theta_band, requires_grad=True)
        with dc.Tape():
            w = build(tl, tb, min_band, window)
            grads = dc.backward(dc.sum_all(dc.mul(w, weights)))
        results.append((w.data, grads[tl], grads[tb]))
    _, f2, free_low, free_high = ops.sinc_cutoffs(theta_low, theta_band, min_band)
    assert (~free_low).sum() == 6 and (~free_high).sum() == 13 and np.all(f2[:13] == 0.5)
    for new, old in zip(*results):
        assert new.dtype == old.dtype == dtype and new.shape == old.shape
        if dtype == np.float32:
            assert new.tobytes() == old.tobytes()
        else:
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-12 * np.abs(old).max())


def test_sinc_kernel_rejects_bad_shapes():
    """Cutoff arrays of different shapes, and a window of even length (the
    kernel length is the window's), are rejected."""
    tl = dc.Tensor(np.full(3, 0.1))
    with pytest.raises(ShapeMismatchError, match="cutoffs"):
        dc.sinc_kernel(tl, dc.Tensor(np.full(4, 0.1)), 0.01, np.hamming(5))
    with pytest.raises(ConfigError, match="odd"):
        dc.sinc_kernel(tl, tl, 0.01, np.hamming(6))
    assert dc.sinc_kernel(tl, tl, 0.01, np.hamming(7)).shape == (7, 1, 3)


# -- checkpoint archive ---------------------------------------------------------


def test_archive_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "enc/w1": rng.normal(size=(3, 4)).astype(np.float32),
        "enc/b1": rng.normal(size=4),
        "meta/steps": np.array([5, 7], dtype=np.int64),
    }
    meta = {"kind": "vgg", "scale": "desk", "val_accuracy": 0.91}
    path = tmp_path / "model.ckpt"
    dc.save_archive(path, tensors, meta)
    loaded, got_meta = dc.load_archive(path)
    assert got_meta == meta
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
        assert loaded[k].dtype == tensors[k].dtype


def test_archive_deterministic_bytes(tmp_path):
    tensors = {"b": np.ones(3, dtype=np.float32), "a": np.zeros((2, 2))}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    dc.save_archive(p1, tensors, {"x": 1})
    dc.save_archive(p2, dict(reversed(tensors.items())), {"x": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_write_failing_part_way_keeps_previous_file(tmp_path, disk_full):
    path = tmp_path / "model.ckpt"
    dc.save_archive(path, {"w": np.arange(6, dtype=np.float32)}, {"episode": 1})
    before = path.read_bytes()
    disk_full()
    with pytest.raises(OSError):
        dc.save_archive(path, {"w": np.ones(600, dtype=np.float32)}, {"episode": 2})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("meta", [[{"episode": 1}], "episode", 3, []])
def test_archive_writer_refuses_metadata_its_reader_rejects(tmp_path, meta):
    """Metadata that is not a dict raises before anything is written: the
    previous archive keeps its bytes, and no temp file is left."""
    path = tmp_path / "model.ckpt"
    dc.save_archive(path, {"w": np.arange(6, dtype=np.float32)}, {"episode": 1})
    before = path.read_bytes()
    with pytest.raises(CorruptCheckpointError, match="not a dict"):
        dc.save_archive(path, {"w": np.ones(6, dtype=np.float32)}, meta)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_archive_detects_corruption(tmp_path):
    path = tmp_path / "model.ckpt"
    dc.save_archive(path, {"w": np.arange(6, dtype=np.float32)}, {})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        dc.load_archive(path)


def test_archive_detects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    dc.save_archive(path, {"w": np.arange(6, dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CorruptCheckpointError):
        dc.load_archive(path)


def raw_archive(path, meta_blob, names):
    """Writes an archive with a valid checksum: metadata meta_blob, then one
    float32 scalar under each raw name, in the given order."""
    parts = [b"NTAR", struct.pack("<II", 1, len(meta_blob)), meta_blob,
             struct.pack("<I", len(names))]
    for name in names:
        parts += [struct.pack("<H", len(name)), name, struct.pack("<BB", 0, 0),
                  np.float32(1.0).tobytes()]
    body = b"".join(parts)
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.mark.parametrize("meta_blob,names,match", [
    (b"[]", [b"w"], "metadata is a JSON list"),
    (b"{}", [b"w\xff"], "tensor name is not UTF-8"),
    (b"{}", [b"w", b"w"], "tensor 'w' appears twice"),
], ids=["metadata-list", "name-not-utf8", "name-twice"])
def test_archive_breaking_the_layout_under_a_valid_checksum_is_corrupt(tmp_path, meta_blob,
                                                                        names, match):
    raw_archive(tmp_path / "ok.ckpt", b"{}", [b"w"])
    tensors, meta = dc.load_archive(tmp_path / "ok.ckpt")
    assert ({k: v.tolist() for k, v in tensors.items()}, meta) == ({"w": 1.0}, {})
    path = tmp_path / "bad.ckpt"
    raw_archive(path, meta_blob, names)
    with pytest.raises(CorruptCheckpointError, match=match):
        dc.load_archive(path)


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    body = b"NOPE" + b"\0" * 16
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CorruptCheckpointError):
        dc.load_archive(path)
