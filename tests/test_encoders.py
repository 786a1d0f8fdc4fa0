import dataclasses
import tracemalloc

import numpy as np
import pytest

from protoaudio import diffcore as dc
from protoaudio.audio_io import SAMPLE_RATE, TimbreProfile, synth_clip
from protoaudio.dsp import FrontendConfig, mel_scale
from protoaudio.encoders import (
    ComposedSincEncoder,
    EncoderSpec,
    LstmEncoder,
    SincNetEncoder,
    VggEncoder,
    build_encoder,
    clamp_cutoffs,
    sinc_init_mel,
    window_count,
)
from protoaudio.encoders.base import (N_MELS, SINC_FILTERS, SINC_KERNEL_LEN,
                                      SINC_STACK_CHANNELS, SINC_STRIDE)
from protoaudio.encoders.sincnet import MIN_BAND_HZ
from protoaudio.errors import (
    ConfigError,
    DimensionMismatchError,
    KernelTooLongError,
    ShapeMismatchError,
)
from protoaudio.protonet import episode_loss

import reference_ops as rops
from test_diffcore import im2col_conv1d

FRONTEND = FrontendConfig()
DESK = dict(scale="desk")


def make(kind, seed=0):
    return build_encoder(EncoderSpec(kind, "desk"), FRONTEND, seed=seed)


def rand_feats(rng, t):
    # plausible log-mel range
    return rng.uniform(-13.8, 0.0, size=(t, 64)).astype(np.float32)


# -- dimension table -------------------------------------------------------------


def test_paper_scale_dims():
    assert EncoderSpec("vgg", "paper").embed_dim == 3072
    assert EncoderSpec("lstm", "paper").dims.lstm_hidden == 4096
    assert EncoderSpec("lstm", "paper").embed_dim == 2048
    assert EncoderSpec("sincnet+vgg", "paper").embed_dim == 3072
    assert EncoderSpec("sincnet+lstm", "paper").embed_dim == 2048


def test_desk_scale_dims():
    assert EncoderSpec("vgg", "desk").embed_dim == 384
    assert EncoderSpec("lstm", "desk").dims.lstm_hidden == 128
    assert EncoderSpec("lstm", "desk").embed_dim == 64
    assert EncoderSpec("sincnet", "desk").embed_dim == 64
    assert (SINC_FILTERS, SINC_KERNEL_LEN, SINC_STRIDE) == (64, 251, 80)
    assert [f.name for f in dataclasses.fields(EncoderSpec("sincnet", "desk").dims)] == [
        "vgg_channels", "lstm_hidden", "lstm_out"]


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_sinc_stack_width_is_the_feature_width(scale):
    """The composed encoders hand SincNet's packed maps to a head built for
    log-mel frames, so the stack width equals N_MELS at every scale."""
    assert EncoderSpec("sincnet", scale).embed_dim == SINC_STACK_CHANNELS == N_MELS
    assert N_MELS == FrontendConfig.n_mels


_SINC_DIMS = {"sinc_filters": 64, "sinc_kernel_len": 251, "sinc_stride": 80,
              "sinc_stack_channels": 64, "sinc_stack_kernel": 5}
_SCALE_DIMS = {
    "paper": {"vgg_channels": [64, 128, 256, 256, 512, 512, 512, 512],
              "lstm_hidden": 4096, "lstm_out": 2048, **_SINC_DIMS},
    "desk": {"vgg_channels": [8, 16, 32, 32, 64, 64, 64, 64],
             "lstm_hidden": 128, "lstm_out": 64, **_SINC_DIMS},
}


@pytest.mark.parametrize("kind,scale,embed_dim", [
    ("vgg", "paper", 3072), ("lstm", "paper", 2048), ("sincnet", "paper", 64),
    ("sincnet+vgg", "paper", 3072), ("sincnet+lstm", "paper", 2048),
    ("vgg", "desk", 384), ("lstm", "desk", 64), ("sincnet", "desk", 64),
    ("sincnet+vgg", "desk", 384), ("sincnet+lstm", "desk", 64),
])
def test_checkpoint_header_is_the_golden_one(kind, scale, embed_dim):
    """Every checkpoint carries this header and loads only into an encoder
    whose header equals it; a change here changes the checkpoint format."""
    assert EncoderSpec(kind, scale).header() == {
        "kind": kind, "scale": scale, "embed_dim": embed_dim, "dims": _SCALE_DIMS[scale]}


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        EncoderSpec("transformer", "desk")
    with pytest.raises(ConfigError):
        EncoderSpec("vgg", "huge")


def test_build_encoder_takes_only_the_fixed_front_end():
    """The front end is fixed: no FrontendConfig other than FrontendConfig()
    can be made, and build_encoder accepts that one in its second place, as
    no config at all, and rejects any other object."""
    with pytest.raises(TypeError):
        FrontendConfig(n_mels=40)
    spec = EncoderSpec("lstm", "desk")
    named, unnamed = build_encoder(spec, FrontendConfig(), 3), build_encoder(spec, seed=3)
    assert named.state_dict().keys() == unnamed.state_dict().keys()
    for name, value in named.state_dict().items():
        np.testing.assert_array_equal(value, unnamed.state_dict()[name])
    for frontend in (FrontendConfig, "FrontendConfig()", 64, object()):
        with pytest.raises(ConfigError, match="fixed front end"):
            build_encoder(spec, frontend, 3)


# -- windowed CNN -----------------------------------------------------------------


def test_window_count_oracle():
    oracle = lambda t: 1 if t < 96 else (t - 96) // 48 + 1
    for t in [1, 50, 95, 96, 97, 98, 143, 144, 191, 192, 300]:
        assert window_count(t) == oracle(t)
    assert window_count(98) == 1
    assert window_count(96) == 1
    assert window_count(192) == 3


def test_vgg_embedding_is_mean_of_window_embeddings():
    enc = make("vgg")
    rng = np.random.default_rng(0)
    feats = rand_feats(rng, 192)
    full = enc.embed_batch([feats]).data[0]
    per_window = [enc.embed_batch([feats[s:s + 96]]).data[0] for s in (0, 48, 96)]
    np.testing.assert_allclose(full, np.mean(per_window, axis=0), atol=1e-5)


def test_vgg_short_input_padded_to_one_window():
    enc = make("vgg")
    rng = np.random.default_rng(1)
    feats = rand_feats(rng, 50)
    padded = np.zeros((96, 64), dtype=np.float32)
    padded[:50] = feats
    np.testing.assert_allclose(
        enc.embed_batch([feats]).data, enc.embed_batch([padded]).data, atol=1e-6
    )


def test_vgg_trailing_partial_window_dropped():
    enc = make("vgg")
    rng = np.random.default_rng(2)
    feats = rand_feats(rng, 98)   # second window would need frames 48..143
    np.testing.assert_allclose(
        enc.embed_batch([feats]).data, enc.embed_batch([feats[:96]]).data, atol=1e-6
    )


def assert_matches_reference(enc, inputs, reference, rng, tol=1e-12):
    """enc.embed_batch(inputs) and every parameter gradient of a fixed random
    loss on it equal those of reference(inputs), to tol of the largest entry."""
    weights = dc.Tensor(rng.standard_normal((len(inputs), enc.embed_dim)))
    results = []
    for embed in (enc.embed_batch, reference):
        with dc.Tape():
            emb = embed(inputs)
            gmap = dc.backward(dc.sum_all(dc.mul(emb, weights)))
        results.append((emb.data, {n: gmap[p] for n, p in enc.params.items()}))
    (emb, grads), (ref_emb, ref_grads) = results
    np.testing.assert_allclose(emb, ref_emb, rtol=0, atol=tol * np.abs(ref_emb).max())
    assert sorted(grads) == sorted(enc.params)
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=tol * np.abs(ref).max(),
                                   err_msg=name)


def per_clip_windows(enc, maps):
    """The per-clip window cut that the two gathers of `embed_rows` replaced:
    a clip shorter than one window zero-padded to 96 frames, then one 96-row
    slice per window at hop 48, all windows joined for one trunk pass."""
    windows, counts = [], []
    for feats in maps:
        feats = dc.as_tensor(feats)
        t = feats.shape[0]
        if t < 96:
            feats = rops.pad_rows(feats, 96)
        starts = [48 * i for i in range(window_count(t))]
        windows += [dc.reshape(dc.slice_rows(feats, s, s + 96), (1, 96, 64, 1)) for s in starts]
        counts.append(len(starts))
    return dc.segment_mean(enc._trunk(dc.concat(windows)), counts)


@pytest.mark.parametrize("kind", ["vgg", "sincnet+vgg"])
def test_gathered_windows_match_per_clip_windows(kind):
    """Embeddings and every parameter gradient of a fixed loss equal those of
    the per-clip window cut, in float64, on a ragged batch of 1, 29, 95, 96,
    98, 143, 144 and 248 frames given out of length order; 248 frames give 4
    overlapping windows."""
    enc = make(kind, seed=6)
    for p in enc.params.values():
        p.data = p.data.astype(np.float64)
    rng = np.random.default_rng(17)
    steps = (98, 1, 248, 29, 144, 96, 143, 95)
    if kind == "vgg":
        inputs = [rand_feats(rng, t).astype(np.float64) for t in steps]
        reference = lambda items: per_clip_windows(enc, items)
    else:   # 251-tap kernel at stride 80, then a 2x pool: 2t conv outputs
        inputs = [rng.uniform(-0.5, 0.5, size=251 + 80 * (2 * t - 1)) for t in steps]
        reference = lambda items: per_clip_windows(enc.head, sliced_maps(enc.sinc, items))
        assert enc.sinc.packed_maps(inputs)[1] == list(steps)
    assert window_count(248) == 4
    assert_matches_reference(enc, inputs, reference, rng)


def relu_first_trunk(vgg, x):
    """`VggEncoder._trunk` with ReLU before each pool, as it was before ReLU
    moved after the pools."""
    p = vgg.params
    for i in range(8):
        x = dc.relu(dc.conv2d(x, p[f"conv{i + 1}_w"], p[f"conv{i + 1}_b"], padding=1))
        if i in (0, 1, 3, 5, 7):
            x = dc.max_pool2d(x, 2)
    return dc.reshape(x, (x.shape[0], vgg.spec.dims.vgg_embed_dim))


@pytest.mark.parametrize("kind", ["vgg", "sincnet+vgg"])
def test_relu_after_pool_matches_relu_before_pool(kind):
    """Max and ReLU commute: pooling first gives the float32 embeddings and
    every parameter gradient of ReLU first, bit for bit. The 1- and 29-frame
    clips are zero-padded to a window, so many pool windows hold tied maxima."""
    enc = make(kind, seed=4)
    vgg = enc if kind == "vgg" else enc.head
    rng = np.random.default_rng(21)
    steps = (29, 1, 248, 95, 144, 96, 98, 143)
    if kind == "vgg":
        inputs = [rand_feats(rng, t) for t in steps]
    else:
        inputs = [rng.uniform(-0.5, 0.5, size=251 + 80 * (2 * t - 1)).astype(np.float32)
                  for t in steps]
    weights = dc.Tensor(rng.standard_normal((len(inputs), enc.embed_dim)).astype(np.float32))
    results = []
    for relu_first in (False, True):
        if relu_first:
            vgg._trunk = lambda x: relu_first_trunk(vgg, x)
        with dc.Tape():
            emb = enc.embed_batch(inputs)
            gmap = dc.backward(dc.sum_all(dc.mul(emb, weights)))
        results.append([emb.data] + [gmap[p] for p in enc.params.values()])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


# -- LSTM ---------------------------------------------------------------------------


def lstm_oracle(enc, feats):
    """Independent numpy unroll of the gate equations from the encoder's params."""
    p = {k: v.data.astype(np.float64) for k, v in enc.params.items()}
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h = np.zeros(p["wh_i"].shape[0])
    c = np.zeros_like(h)
    outs = []
    for x in np.asarray(feats, dtype=np.float64):
        gi = sig(x @ p["wx_i"] + h @ p["wh_i"] + p["b_i"])
        gf = sig(x @ p["wx_f"] + h @ p["wh_f"] + p["b_f"])
        gg = np.tanh(x @ p["wx_g"] + h @ p["wh_g"] + p["b_g"])
        go = sig(x @ p["wx_o"] + h @ p["wh_o"] + p["b_o"])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        outs.append(h @ p["wy"] + p["by"])
    return np.mean(outs, axis=0)


def test_lstm_single_timestep_equals_cell_output():
    enc = make("lstm")
    rng = np.random.default_rng(3)
    feats = rand_feats(rng, 1)
    np.testing.assert_allclose(
        enc.embed_batch([feats]).data[0], lstm_oracle(enc, feats), atol=1e-5
    )


def test_lstm_matches_explicit_unroll():
    enc = make("lstm")
    rng = np.random.default_rng(4)
    frame = rng.uniform(-5, 0, size=(1, 64)).astype(np.float32)
    feats = np.repeat(frame, 6, axis=0)
    np.testing.assert_allclose(
        enc.embed_batch([feats]).data[0], lstm_oracle(enc, feats), atol=1e-5
    )
    varied = rand_feats(rng, 5)
    np.testing.assert_allclose(
        enc.embed_batch([varied]).data[0], lstm_oracle(enc, varied), atol=1e-5
    )


def test_lstm_ragged_batch_matches_oracle():
    """Clips of different lengths embedded in one batch each match their own
    unroll: padding a clip at its end changes nothing it computes."""
    enc = make("lstm")
    rng = np.random.default_rng(9)
    batch = [rand_feats(rng, t) for t in (1, 37, 96, 118)]
    embs = enc.embed_batch(batch).data
    for emb, feats in zip(embs, batch):
        np.testing.assert_allclose(emb, lstm_oracle(enc, feats), atol=1e-5)


def held_arrays(node):
    """The arrays a tape node keeps until backward(): its inputs, its output
    and what its backward closure captured."""
    cells = [cell.cell_contents for cell in node.backward_fn.__closure__ or ()]
    for obj in (*node.inputs, node.output, *cells):
        obj = obj.data if isinstance(obj, dc.Tensor) else obj
        if isinstance(obj, np.ndarray):
            yield obj


def test_lstm_desk_forward_tape_size():
    """A 50-clip desk forward records 7 nodes: the three gate-axis joins,
    the recurrence, the output projection and the mean. The input projection
    runs inside `lstm_sequence`, so no node holds an (N, 4H) array."""
    enc = make("lstm")
    rng = np.random.default_rng(10)
    # the longest clip sets the step count: 118 frames is 1.2 s of audio
    lengths = [118] + list(rng.integers(49, 119, size=49))
    with dc.Tape() as tape:
        enc.embed_batch([rand_feats(rng, t) for t in lengths])
    assert [node.op_name for node in tape.nodes] == [
        "concat", "concat", "concat", "lstm_sequence", "matmul", "add", "segment_mean"]
    gate_width = 4 * enc.spec.dims.lstm_hidden
    shapes = {a.shape for node in tape.nodes for a in held_arrays(node)}
    assert (sum(lengths), gate_width) not in shapes
    assert (sum(lengths), enc.spec.dims.lstm_hidden) in shapes       # the check sees rows


def sliced_maps(sinc, inputs):
    """The clips' sinc maps as slices of the packed rows, one per clip."""
    rows, lengths = sinc.packed_maps(inputs)
    ends = np.cumsum(lengths)
    return [dc.slice_rows(rows, int(end - t), int(end)) for end, t in zip(ends, lengths)]


def set_nonzero_lstm_biases(enc, seed):
    """Seeded nonzero values for the LSTM's `b_*` and `by`, which start at
    zero, so an equivalence test sees what the biases add and receive."""
    rng = np.random.default_rng(seed)
    for name, p in enc.params.items():
        leaf = name.rsplit("/", 1)[-1]
        if leaf.startswith("b_") or leaf == "by":
            p.data = rng.uniform(-0.5, 0.5, size=p.data.shape).astype(p.data.dtype)


def unrolled_lstm(enc, inputs):
    """The padded, per-gate `embed_batch` that `lstm_sequence` replaced: clips
    zero-padded to the longest, one step of four gate GEMM pairs per frame,
    and the mean over real steps as a dense (B, T·B) matrix."""
    feats = [dc.as_tensor(item) for item in inputs]
    lengths = [seq.shape[0] for seq in feats]
    steps, n = max(lengths), len(feats)
    frames = dc.concat([rops.pad_rows(seq, steps) for seq in feats], axis=1)
    p = enc.params
    h = c = dc.Tensor(np.zeros((n, enc.spec.dims.lstm_hidden), dtype=p["wy"].dtype))
    states = []
    for t in range(steps):
        x = dc.reshape(dc.slice_rows(frames, t, t + 1), (n, 64))
        pre = {g: dc.add(dc.add(dc.matmul(x, p[f"wx_{g}"]), dc.matmul(h, p[f"wh_{g}"])),
                         p[f"b_{g}"])
               for g in "ifgo"}
        i, f, o = (rops.sigmoid(pre[g]) for g in "ifo")
        c = dc.add(dc.mul(f, c), dc.mul(i, rops.tanh(pre["g"])))
        h = dc.mul(o, rops.tanh(c))
        states.append(h)
    proj = dc.add(dc.matmul(dc.concat(states, axis=0), p["wy"]), p["by"])
    weights = np.zeros((n, steps, n), dtype=proj.dtype)
    for b, length in enumerate(lengths):
        weights[b, :length, b] = 1.0 / length
    return dc.matmul(dc.Tensor(weights.reshape(n, steps * n)), proj)


@pytest.mark.parametrize("kind", ["lstm", "sincnet+lstm"])
def test_lstm_sequence_matches_unrolled_encoder(kind):
    """Embeddings and every parameter gradient of a fixed loss equal those of
    the unrolled encoder, in float64, on a ragged batch of 1, 37, 96 and 118
    steps given out of length order."""
    enc = make(kind, seed=3)
    for p in enc.params.values():
        p.data = p.data.astype(np.float64)
    set_nonzero_lstm_biases(enc, seed=23)
    rng = np.random.default_rng(13)
    steps = (37, 1, 118, 96)
    if kind == "lstm":
        inputs = [rand_feats(rng, t) for t in steps]
        reference = lambda items: unrolled_lstm(enc, items)
    else:   # 251-tap kernel at stride 80, then a 2x pool: 2t conv outputs
        inputs = [rng.uniform(-0.5, 0.5, size=251 + 80 * (2 * t - 1)) for t in steps]
        reference = lambda items: unrolled_lstm(enc.head, sliced_maps(enc.sinc, items))
    assert_matches_reference(enc, inputs, reference, rng)
    if kind == "sincnet+lstm":
        assert enc.sinc.packed_maps(inputs)[1] == list(steps)


def lstm_inputs(kind, rng, steps):
    """Inputs whose LSTM runs `steps` steps: feature frames, or for
    `sincnet+lstm` waveforms (251-tap kernel at stride 80, then a 2x pool)."""
    if kind == "lstm":
        return [rand_feats(rng, t) for t in steps]
    return [rng.uniform(-0.5, 0.5, size=251 + 80 * (2 * t - 1)).astype(np.float32)
            for t in steps]


@pytest.mark.parametrize("kind", ["lstm", "sincnet+lstm"])
@pytest.mark.parametrize("steps", [
    [1], [47], [96],                     # one clip: projected whole
    [37, 118],
    [700, 1, 351, 2, 64],
    list(np.random.default_rng(24).integers(1, 701, size=12)),
], ids=["B1-T1", "B1-T47", "B1-T96", "B2", "ragged5", "ragged12"])
def test_forward_only_embedding_is_the_taped_embedding(kind, steps):
    """With no tape recording, `lstm_sequence` keeps no BPTT state and
    projects each step's slot rows on their own; the float32 embeddings are
    the bits of a recorded forward, with nonzero biases."""
    enc = make(kind, seed=3)
    set_nonzero_lstm_biases(enc, seed=23)
    inputs = lstm_inputs(kind, np.random.default_rng(len(steps)), [int(t) for t in steps])
    forward_only = enc.embed_batch(inputs).data
    with dc.Tape() as tape:
        taped = enc.embed_batch(inputs).data
    assert "lstm_sequence" in [node.op_name for node in tape.nodes]
    assert forward_only.dtype == np.float32
    assert forward_only.tobytes() == taped.tobytes()


def test_forward_only_desk_lstm_embed_peaks_below_one_gate_buffer():
    """A forward-only 100-clip desk embed, as validation and evaluation run
    it, peaks below a time-major (T·B, 4H) float32 gate buffer, let alone
    BPTT's h, c and tanh(c) histories."""
    enc = make("lstm")
    rng = np.random.default_rng(21)
    steps = [118] + list(rng.integers(49, 119, size=99))
    batch = lstm_inputs("lstm", rng, steps)
    gate_bytes = 118 * 100 * 4 * enc.spec.dims.lstm_hidden * 4
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enc.embed_batch(batch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < gate_bytes


def test_forward_only_lstm_sequence_writes_each_hidden_row_once():
    """Forward-only, `lstm_sequence` holds its packed input copy (D floats a
    row) and its output (H floats a row) and otherwise only a few steps'
    rows: a packed history of hidden states beside the output would bring it
    to D + 2H floats a row."""
    rng = np.random.default_rng(21)
    lengths = [118] + list(rng.integers(49, 119, size=99))
    D, H, N = N_MELS, 128, sum(lengths)
    x = rand_feats(rng, N)
    wx, wh = (rng.uniform(-0.1, 0.1, size=s).astype(np.float32) for s in ((4 * D, H), (4 * H, H)))
    b = rng.uniform(-0.5, 0.5, size=4 * H).astype(np.float32)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dc.lstm_sequence(x, wx, b, wh, lengths)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / 4 / N < D + 1.5 * H


def traced_peak_mib(fn):
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_desk_vgg_convs_hold_one_copy_of_each_map():
    """Each conv writes its kept rows once, through a scratch of
    CONV_BLOCK_BYTES, and the tape keeps its input, not a padded copy. The
    bounds lie about 10% above the measured 10.4 MiB (32 windows, forward-
    only) and 40.3 MiB (a taped 50-clip episode, forward and backward). A
    whole-batch grid and im2col matrix beside each output took the first
    to 16.2 MiB, and the padded copies the tape kept took the second to
    49.5 MiB."""
    enc = make("vgg")
    rng = np.random.default_rng(31)
    windows = [rand_feats(rng, 96) for _ in range(32)]
    clips = [rand_feats(rng, int(t)) for t in rng.integers(78, 119, size=50)]

    def taped_episode():
        with dc.Tape():
            embs = enc.embed_batch(clips)
            support = dc.reshape(dc.slice_rows(embs, 0, 25), (5, 5, enc.embed_dim))
            loss, _ = episode_loss(support, dc.slice_rows(embs, 25, 50), np.repeat(np.arange(5), 5))
            dc.backward(loss)

    assert traced_peak_mib(lambda: enc.embed_batch(windows)) < 11.5
    assert traced_peak_mib(taped_episode) < 44.0


@pytest.mark.parametrize("kind", ["vgg", "lstm", "sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_empty_batch_raises_shape_mismatch(kind):
    with pytest.raises(ShapeMismatchError):
        make(kind).embed_batch([])


@pytest.mark.parametrize("kind", ["vgg", "lstm"])
def test_zero_frame_clip_raises_dimension_mismatch(kind):
    """A clip with no frames is rejected by name, wherever it sits in the batch,
    as is a clip of the wrong width."""
    enc = make(kind)
    rng = np.random.default_rng(18)
    batch = [rand_feats(rng, 50), np.zeros((0, 64), dtype=np.float32), rand_feats(rng, 3)]
    with pytest.raises(DimensionMismatchError, match=r"clip 1 is \(0, 64\)"):
        enc.embed_batch(batch)
    batch[1] = rand_feats(rng, 4)[:, :32]
    with pytest.raises(DimensionMismatchError, match=r"clip 1 is \(4, 32\)"):
        enc.embed_batch(batch)


def test_lstm_is_order_sensitive():
    enc = make("lstm")
    rng = np.random.default_rng(5)
    feats = rand_feats(rng, 10)
    permuted = feats[::-1].copy()
    a = enc.embed_batch([feats]).data[0]
    b = enc.embed_batch([permuted]).data[0]
    assert not np.allclose(a, b, atol=1e-6)


# -- sinc layer ------------------------------------------------------------------------


def test_sinc_init_mel_band_structure():
    theta_low, theta_band = sinc_init_mel(64)
    assert theta_low.dtype == theta_band.dtype == np.float64
    f1, f2 = (f * SAMPLE_RATE for f in clamp_cutoffs(theta_low, theta_band))
    assert abs(f1[0] - 30.0) < 1e-9
    np.testing.assert_allclose(f2[:-1], f1[1:], atol=1e-9)   # shared breakpoints
    centers_mel = (mel_scale(f1) + mel_scale(f2)) / 2.0
    assert np.all(np.diff(centers_mel) > 0)
    np.testing.assert_allclose(np.diff(centers_mel), np.diff(centers_mel)[0], atol=1e-6)
    assert np.all(f2 <= 8000.0 + 1e-9)


def test_sinc_init_requires_two_filters():
    with pytest.raises(ConfigError):
        sinc_init_mel(1)


def band_kernel(f1, f2, window):
    """The kernel of one band [f1, f2] (cycles/sample), floor 0."""
    k = dc.sinc_kernel(dc.Tensor(np.array([f1])), dc.Tensor(np.array([f2 - f1])), 0.0, window)
    return k.data[:, 0, 0]


def test_sinc_kernel_dc_response_low_f1_limit():
    # f1 -> 0: windowed low-pass; DC response ~ 2 * f2 * sum(window)
    win = np.hamming(251)
    f2 = 1e-5
    k = band_kernel(0.0, f2, win)
    assert abs(k.sum() - 2.0 * f2 * win.sum()) < 1e-6


def test_sinc_kernel_center_tap():
    f1, f2 = 0.05, 0.2
    k = band_kernel(f1, f2, np.hamming(251))
    assert np.hamming(251)[125] == 1.0
    assert abs(k[125] - (2 * f2 - 2 * f1)) < 1e-12


def test_sinc_kernel_band_response():
    # FFT-of-kernel oracle: mid-band response beats DC and Nyquist
    f1, f2 = 1000.0 / 16000.0, 2000.0 / 16000.0
    k = band_kernel(f1, f2, np.hamming(251))
    H = np.abs(np.fft.rfft(k, 8192))
    center = int(round(1500.0 / 16000.0 * 8192))
    assert H[center] > H[0]
    assert H[center] > H[-1]


def test_sinc_rejects_short_waveform():
    enc = make("sincnet")
    with pytest.raises(KernelTooLongError):
        enc.packed_maps([np.zeros(100, dtype=np.float32)])


@pytest.mark.parametrize("kind", ["sincnet", "sincnet+vgg", "sincnet+lstm"])
@pytest.mark.parametrize("short", [251, 300, 330])
def test_sinc_rejects_clip_without_one_pooled_frame(kind, short):
    """A clip of kernel_len <= n < kernel_len + stride samples has one conv
    frame and no pooled one. It raises KernelTooLongError naming the minimum,
    also from the middle of a batch; 331 samples give one pooled frame."""
    enc = make(kind)
    rng = np.random.default_rng(short)
    batch = [rng.uniform(-0.5, 0.5, size=n).astype(np.float32) for n in (16000, short, 8000)]
    with pytest.raises(KernelTooLongError, match=r"waveform 1 has \d+ samples.* needs 331"):
        enc.embed_batch(batch)
    batch[1] = rng.uniform(-0.5, 0.5, size=331).astype(np.float32)
    assert enc.embed_batch(batch).shape == (3, enc.embed_dim)
    if kind == "sincnet":
        assert enc.packed_maps(batch)[1] == [98, 1, 48]


def test_sinc_layer_orientation():
    enc = make("sincnet")
    clip = synth_clip(TimbreProfile(440.0), 0.5, seed=0)
    fmap, lengths = enc.packed_maps([clip.samples])     # time-major (T', channels)
    assert fmap.shape == (lengths[0], 64)
    assert fmap.shape[0] > 1


@pytest.mark.parametrize("kind", ["sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_sinc_kernels_built_once_per_batch(kind):
    enc = make(kind)
    with dc.Tape() as tape:
        enc.embed_batch(tiny_episode_inputs(enc))
    assert [node.op_name for node in tape.nodes].count("sinc_kernel") == 1


def test_clamp_keeps_cutoffs_ordered_after_updates():
    enc = make("sincnet")
    thetas = {k: v for k, v in enc.params.items() if k.startswith("theta")}
    state = dc.AdamState.for_params(thetas)
    rng = np.random.default_rng(6)
    for _ in range(100):
        grads = {k: rng.normal(scale=5.0, size=v.data.shape).astype(np.float32)
                 for k, v in thetas.items()}
        dc.adam_step(thetas, grads, state, lr=1e-2)
        f1, f2 = clamp_cutoffs(thetas["theta_low"].data, thetas["theta_band"].data)
        assert f1.dtype == f2.dtype == np.float32
        assert np.all(f1 >= 0.0)
        assert np.all(f1 < f2)
        assert np.all(f2 <= 0.5)


# -- composition & whole-encoder properties --------------------------------------------


def tiny_episode_inputs(enc, duration=0.5):
    profiles = [TimbreProfile(220.0), TimbreProfile(1200.0)]
    clips = [synth_clip(p, duration, seed=i) for i, p in enumerate(profiles * 2)]
    return [enc.prepare_input(c) for c in clips]


def test_composed_embedding_dims_and_determinism():
    for kind, dim in [("sincnet+lstm", 64), ("sincnet+vgg", 384)]:
        enc = make(kind)
        clip = synth_clip(TimbreProfile(500.0, (1.0, 0.3)), 1.0, seed=1)
        e1 = enc.embed_batch([enc.prepare_input(clip)]).data
        e2 = enc.embed_batch([enc.prepare_input(clip)]).data
        assert e1.shape == (1, dim)
        np.testing.assert_array_equal(e1, e2)


SINC_NAMES = ["sinc/conv1_b", "sinc/conv1_w", "sinc/conv2_b", "sinc/conv2_w",
              "sinc/theta_band", "sinc/theta_low"]
COMPOSED_NAMES = {
    "sincnet+vgg": SINC_NAMES + [f"vgg/conv{i}_{t}" for i in range(1, 9) for t in "bw"],
    "sincnet+lstm": [f"lstm/{n}" for n in ("b_f", "b_g", "b_i", "b_o", "by", "wh_f", "wh_g",
                                            "wh_i", "wh_o", "wx_f", "wx_g", "wx_i", "wx_o", "wy")]
    + SINC_NAMES,
}


@pytest.mark.parametrize("kind,head_cls", [("sincnet+vgg", VggEncoder),
                                           ("sincnet+lstm", LstmEncoder)])
def test_composed_parameter_names_and_values(kind, head_cls):
    """Checkpoint names are the sub-encoders' names under their prefix, each
    naming the sub-encoder's own Tensor, whose value is that of the
    sub-encoder built on its own with seed (sinc) or seed + 1 (head)."""
    seed = 5
    enc = make(kind, seed=seed)
    assert sorted(enc.params) == COMPOSED_NAMES[kind]
    head_kind = kind.split("+")[1]
    spec = EncoderSpec(kind, "desk")
    for prefix, owned, direct in (
            ("sinc", enc.sinc, SincNetEncoder(spec, seed)),
            (head_kind, enc.head, head_cls(spec, seed + 1))):
        for name, p in owned.params.items():
            assert enc.params[f"{prefix}/{name}"] is p
            np.testing.assert_array_equal(p.data, direct.params[name].data)


def test_gradient_reaches_sinc_cutoffs():
    enc = make("sincnet+lstm")
    inputs = tiny_episode_inputs(enc)
    before = enc.params["sinc/theta_low"].data.copy()
    state = dc.AdamState.for_params(enc.params)
    with dc.Tape():
        embs = enc.embed_batch(inputs)
        support = dc.reshape(dc.slice_rows(embs, 0, 2), (2, 1, enc.embed_dim))
        queries = dc.slice_rows(embs, 2, 4)
        loss, _ = episode_loss(support, queries, np.array([0, 1]))
        gmap = dc.backward(loss)
    grads = {name: (gmap[p] if p in gmap else np.zeros_like(p.data))
             for name, p in enc.params.items()}
    assert np.any(grads["sinc/theta_low"] != 0) or np.any(grads["sinc/theta_band"] != 0)
    dc.adam_step(enc.params, grads, state, lr=1e-3)
    assert not np.array_equal(before, enc.params["sinc/theta_low"].data)


# The per-clip forwards the batched encoders replaced, kept as references.


def per_clip_lstm(enc, feats):
    """(T, 64) -> (1, out): a separate recurrence, and separate gates, per clip."""
    p = enc.params

    def gate(name, x, h):
        pre = dc.add(dc.add(dc.matmul(x, p[f"wx_{name}"]), dc.matmul(h, p[f"wh_{name}"])),
                     p[f"b_{name}"])
        return rops.tanh(pre) if name == "g" else rops.sigmoid(pre)

    h = dc.Tensor(np.zeros((1, enc.spec.dims.lstm_hidden), dtype=np.float32))
    c = dc.Tensor(np.zeros((1, enc.spec.dims.lstm_hidden), dtype=np.float32))
    outputs = []
    for t in range(feats.shape[0]):
        x = dc.slice_rows(feats, t, t + 1)
        gi, gf, gg, go = (gate(g, x, h) for g in "ifgo")
        c = dc.add(dc.mul(gf, c), dc.mul(gi, gg))
        h = dc.mul(go, rops.tanh(c))
        outputs.append(dc.add(dc.matmul(h, p["wy"]), p["by"]))
    seq = dc.concat(outputs, axis=0) if len(outputs) > 1 else outputs[0]
    return dc.reshape(dc.mean_pool(seq, 0), (1, enc.spec.dims.lstm_out))


def sinc_weight(enc):
    """The sinc layer's (K, 1, F) conv weight, as its encoder builds it."""
    p = enc.params
    return dc.sinc_kernel(p["theta_low"], p["theta_band"], MIN_BAND_HZ / SAMPLE_RATE,
                          enc._window)


def per_clip_sinc_map(enc, samples):
    """(N,) -> time-major (T', 64), with the band-pass kernels rebuilt per clip."""
    x = dc.Tensor(np.asarray(samples, dtype=np.float32)[:, None])
    h = dc.conv1d(x, sinc_weight(enc), stride=enc.stride)
    h = dc.max_pool1d(rops.log(rops.add_scalar(rops.absval(h), 1e-6)), 2)
    p = enc.params
    h = dc.relu(dc.conv1d(h, p["conv1_w"], p["conv1_b"], padding=enc._pad))
    return dc.relu(dc.conv1d(h, p["conv2_w"], p["conv2_b"], padding=enc._pad))


def per_clip_embed(enc, kind, item):
    if kind == "lstm":
        return per_clip_lstm(enc, dc.as_tensor(item))
    if kind == "sincnet":
        return dc.reshape(dc.mean_pool(per_clip_sinc_map(enc, item), 0), (1, enc.embed_dim))
    return per_clip_lstm(enc.head, per_clip_sinc_map(enc.sinc, item))


@pytest.mark.parametrize("kind", ["lstm", "sincnet", "sincnet+lstm"])
def test_batched_forward_matches_per_clip_gradients(kind):
    """Embeddings and parameter gradients of a fixed loss over a ragged batch
    equal those of the per-clip forward. Parameters are cast to float64 so the
    comparison sees the computation, not float32 summation order: in float32
    the cutoff gradients, 251-tap sums with heavy cancellation, move by a few
    1e-5 of their largest entry when the per-clip kernel gradients are summed
    before the sinc backward rather than after it."""
    enc = make(kind, seed=2)
    for p in enc.params.values():
        p.data = p.data.astype(np.float64)
    set_nonzero_lstm_biases(enc, seed=22)
    rng = np.random.default_rng(12)
    if kind == "lstm":
        inputs = [rand_feats(rng, t) for t in (1, 37, 96, 118)]
    else:   # sinc maps of 1, 28, 58 and 73 frames
        inputs = [rng.uniform(-0.5, 0.5, size=n).astype(np.float32)
                  for n in (480, 4800, 9600, 12000)]
    assert_matches_reference(
        enc, inputs, lambda items: dc.concat([per_clip_embed(enc, kind, x) for x in items]),
        rng, tol=1e-5)


def im2col_sinc_maps(enc, inputs):
    """The per-clip sinc maps the one-pass layout replaced: band-pass
    kernels built once, then the sinc conv, pool and conv stack run clip by
    clip through the im2col conv1d."""
    w = sinc_weight(enc)
    p = enc.params
    maps = []
    for samples in inputs:
        x = np.asarray(samples, dtype=np.float32)
        h = im2col_conv1d(dc.Tensor(x[:, None]), w, stride=enc.stride)
        h = dc.max_pool1d(rops.log(rops.add_scalar(rops.absval(h), 1e-6)), 2)
        h = dc.relu(im2col_conv1d(h, p["conv1_w"], p["conv1_b"], padding=enc._pad))
        maps.append(dc.relu(im2col_conv1d(h, p["conv2_w"], p["conv2_b"], padding=enc._pad)))
    return maps


@pytest.mark.parametrize("kind", ["sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_one_pass_sinc_matches_per_clip_im2col(kind):
    """Embeddings, feature-map shapes and every parameter gradient of a fixed
    loss equal those of the per-clip im2col forward, in float64, on clips of
    331 samples (one pooled frame), 411 (3 conv frames), 4080 (48) and 4001
    (47), 12800 and 19200."""
    enc = make(kind, seed=4)
    for p in enc.params.values():
        p.data = p.data.astype(np.float64)
    sinc = enc if kind == "sincnet" else enc.sinc
    rng = np.random.default_rng(15)
    inputs = [rng.uniform(-0.5, 0.5, size=n).astype(np.float32)
              for n in (4080, 331, 19200, 411, 12800, 4001)]
    if kind == "sincnet":
        def reference(items):
            maps = im2col_sinc_maps(sinc, items)
            return dc.segment_mean(dc.concat(maps), [m.shape[0] for m in maps])
    else:
        def reference(items):
            return enc.head.embed_batch(im2col_sinc_maps(sinc, items))
    assert ([m.shape for m in sliced_maps(sinc, inputs)]
            == [m.shape for m in im2col_sinc_maps(sinc, inputs)]
            == [(t, 64) for t in (24, 1, 118, 1, 78, 23)])
    assert_matches_reference(enc, inputs, reference, rng)


def test_sincnet_tape_size_independent_of_clip_count():
    """A desk `sincnet`, `sincnet+vgg` or `sincnet+lstm` forward records as
    many tape nodes for 5 clips as for 50: the batch runs as one pass, with
    one sinc_kernel node, 3 conv1d nodes and 1 max_pool1d, and the head takes
    the packed maps whole. The sinc front end records these 11 nodes, with
    no reshape: every conv1d takes packed rows."""
    front_end = ["sinc_kernel", "conv1d", "log_abs", "max_pool1d",
                 "gather_rows", "conv1d", "relu", "gather_rows", "conv1d", "relu",
                 "gather_rows"]
    rng = np.random.default_rng(16)
    for kind, nodes in (("sincnet", 12), ("sincnet+vgg", 39), ("sincnet+lstm", 18)):
        enc = make(kind)
        counts = []
        for n_clips in (5, 50):
            batch = [rng.uniform(-0.5, 0.5, size=n).astype(np.float32)
                     for n in rng.integers(8000, 19201, size=n_clips)]
            with dc.Tape() as tape:
                enc.embed_batch(batch)
            ops = [node.op_name for node in tape.nodes]
            per_op = [ops.count(op) for op in ("sinc_kernel", "conv1d", "max_pool1d")]
            assert per_op == [1, 3, 1], kind
            assert ops[:len(front_end)] == front_end, kind
            counts.append(len(ops))
        assert counts == [nodes, nodes], (kind, counts)


@pytest.mark.parametrize("kind,nodes", [("vgg", 30), ("lstm", 14), ("sincnet", 19),
                                        ("sincnet+vgg", 46), ("sincnet+lstm", 25)])
def test_desk_episode_tape_size(kind, nodes):
    """The tape nodes one desk 5-shot 5-way 5-query training episode records,
    embedding and loss, as `Trainer.step` builds them. A change that grows a
    tape fails here; one that shrinks it updates the count."""
    enc = make(kind)
    clips = [synth_clip(TimbreProfile(200.0 + 30.0 * i), 0.5, seed=i) for i in range(50)]
    with dc.Tape() as tape:
        embs = enc.embed_batch([enc.prepare_input(c) for c in clips])
        support = dc.reshape(dc.slice_rows(embs, 0, 25), (5, 5, enc.embed_dim))
        episode_loss(support, dc.slice_rows(embs, 25, 50), np.repeat(np.arange(5), 5))
    assert len(tape) == nodes


@pytest.mark.parametrize("kind", ["vgg", "lstm", "sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_embedding_dim_independent_of_duration(kind):
    enc = make(kind)
    dims = set()
    for duration in (0.5, 1.0, 3.0):
        clip = synth_clip(TimbreProfile(330.0, (1.0, 0.5)), duration, seed=7)
        emb = enc.embed_batch([enc.prepare_input(clip)])
        dims.add(emb.shape)
    assert dims == {(1, enc.embed_dim)}


@pytest.mark.parametrize("kind", ["vgg", "lstm", "sincnet", "sincnet+vgg", "sincnet+lstm"])
def test_forward_backward_finite_checked(kind):
    enc = make(kind)
    rng = np.random.default_rng(8)
    noise = np.clip(rng.normal(scale=0.3, size=8000), -1, 1).astype(np.float32)
    silence = np.zeros(8000, dtype=np.float32)
    inputs = [enc.prepare_input(x) for x in (noise, silence, noise * 0.5, silence)]
    with dc.checked_mode():
        with dc.Tape():
            embs = enc.embed_batch(inputs)
            support = dc.reshape(dc.slice_rows(embs, 0, 2), (2, 1, enc.embed_dim))
            queries = dc.slice_rows(embs, 2, 4)
            loss, _ = episode_loss(support, queries, np.array([0, 1]))
            gmap = dc.backward(loss)
    assert np.isfinite(loss.item())
    assert gmap  # at least one parameter received a finite gradient


def test_converged_vgg_step_has_no_subnormal_gradients():
    """A desk `vgg` episode at a loss of 0 in float32 leaves no subnormal in any
    parameter gradient. With zero biases the encoder is positively homogeneous,
    so scaling the inputs by a scales every logit gap by a²; a is chosen so the
    closest wrong class gets probability ~e^-95, a float32 subnormal."""
    enc = make("vgg")
    rng = np.random.default_rng(4)
    support = [rng.uniform(-1, 0, size=(96, 64)).astype(np.float32) for _ in range(3)]
    queries = [x + rng.normal(scale=0.05, size=x.shape).astype(np.float32) for x in support]
    k = len(support)

    def step(scale):
        with dc.Tape():
            embs = enc.embed_batch([x * np.float32(scale) for x in support + queries])
            protos = dc.reshape(dc.slice_rows(embs, 0, k), (k, 1, enc.embed_dim))
            loss, _ = episode_loss(protos, dc.slice_rows(embs, k, 2 * k), np.arange(k))
            gmap = dc.backward(loss)
        return loss.item(), embs.data.astype(np.float64), gmap

    _, embs, _ = step(1.0)
    dist = ((embs[k:, None] - embs[None, :k]) ** 2).sum(axis=-1)
    gaps = dist - np.diag(dist)[:, None] + np.diag(np.full(k, np.inf))
    loss, _, gmap = step(np.sqrt(95.0 / gaps.min()))
    assert loss < 1e-30
    assert gmap
    tiny = np.finfo(np.float32).tiny
    for p, g in gmap.items():
        assert not np.any((g != 0) & (np.abs(g) < tiny))


def test_state_dict_round_trip():
    enc = make("vgg")
    other = make("vgg", seed=99)
    clip = synth_clip(TimbreProfile(440.0), 0.8, seed=2)
    x = enc.prepare_input(clip)
    assert not np.allclose(enc.embed_batch([x]).data, other.embed_batch([x]).data)
    other.load_state(enc.state_dict())
    np.testing.assert_array_equal(enc.embed_batch([x]).data, other.embed_batch([x]).data)
