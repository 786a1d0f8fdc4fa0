import numpy as np
import pytest

from protoaudio import diffcore as dc
from protoaudio.audio_io import TimbreProfile, synth_clip
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
from protoaudio.errors import ConfigError, KernelTooLongError
from protoaudio.protonet import episode_loss

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
    d = EncoderSpec("sincnet", "desk").dims
    assert (d.sinc_filters, d.sinc_kernel_len, d.sinc_stride) == (64, 251, 80)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        EncoderSpec("transformer", "desk")
    with pytest.raises(ConfigError):
        EncoderSpec("vgg", "huge")


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
    params = sinc_init_mel(64)
    f1, f2 = params.cutoffs_hz()
    assert abs(f1[0] - 30.0) < 1e-9
    np.testing.assert_allclose(f2[:-1], f1[1:], atol=1e-9)   # shared breakpoints
    centers_mel = (mel_scale(f1) + mel_scale(f2)) / 2.0
    assert np.all(np.diff(centers_mel) > 0)
    np.testing.assert_allclose(np.diff(centers_mel), np.diff(centers_mel)[0], atol=1e-6)
    assert np.all(f2 <= 8000.0 + 1e-9)


def test_sinc_init_requires_two_filters():
    with pytest.raises(ConfigError):
        sinc_init_mel(1)


def test_sinc_kernel_dc_response_low_f1_limit():
    # f1 -> 0: windowed low-pass; DC response ~ 2 * f2 * sum(window)
    win = np.hamming(251)
    f2 = 1e-5
    k = dc.sinc_kernel(
        dc.Tensor(np.array([0.0])), dc.Tensor(np.array([f2])), 251, win
    ).data[0]
    assert abs(k.sum() - 2.0 * f2 * win.sum()) < 1e-6


def test_sinc_kernel_center_tap():
    f1, f2 = 0.05, 0.2
    k = dc.sinc_kernel(
        dc.Tensor(np.array([f1])), dc.Tensor(np.array([f2])), 251, np.hamming(251)
    ).data[0]
    assert np.hamming(251)[125] == 1.0
    assert abs(k[125] - (2 * f2 - 2 * f1)) < 1e-12


def test_sinc_kernel_band_response():
    # FFT-of-kernel oracle: mid-band response beats DC and Nyquist
    f1, f2 = 1000.0 / 16000.0, 2000.0 / 16000.0
    k = dc.sinc_kernel(
        dc.Tensor(np.array([f1])), dc.Tensor(np.array([f2])), 251, np.hamming(251)
    ).data[0]
    H = np.abs(np.fft.rfft(k, 8192))
    center = int(round(1500.0 / 16000.0 * 8192))
    assert H[center] > H[0]
    assert H[center] > H[-1]


def test_sinc_rejects_short_waveform():
    enc = make("sincnet")
    with pytest.raises(KernelTooLongError):
        enc.feature_map(np.zeros(100, dtype=np.float32))


def test_sinc_layer_orientation():
    enc = make("sincnet")
    clip = synth_clip(TimbreProfile(440.0), 0.5, seed=0)
    fmap = enc.sinc_layer(clip.samples)
    assert fmap.shape[0] == 64
    assert fmap.shape[1] > 1


def test_clamp_keeps_cutoffs_ordered_after_updates():
    enc = make("sincnet")
    thetas = {k: v for k, v in enc.params.items() if k.startswith("theta")}
    state = dc.AdamState.for_params(thetas)
    rng = np.random.default_rng(6)
    for _ in range(100):
        grads = {k: rng.normal(scale=5.0, size=v.data.shape).astype(np.float32)
                 for k, v in thetas.items()}
        dc.adam_step(thetas, grads, state, lr=1e-2)
        f1, f2 = clamp_cutoffs(thetas["theta_low"].data.astype(np.float64),
                               thetas["theta_band"].data.astype(np.float64))
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
            ("sinc", enc.sinc, SincNetEncoder(spec, FRONTEND, seed)),
            (head_kind, enc.head, head_cls(spec, FRONTEND, seed + 1))):
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
    grads = {name: (gmap[p].data if p in gmap else np.zeros_like(p.data))
             for name, p in enc.params.items()}
    assert np.any(grads["sinc/theta_low"] != 0) or np.any(grads["sinc/theta_band"] != 0)
    dc.adam_step(enc.params, grads, state, lr=1e-3)
    assert not np.array_equal(before, enc.params["sinc/theta_low"].data)


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


def test_state_dict_round_trip():
    enc = make("vgg")
    other = make("vgg", seed=99)
    clip = synth_clip(TimbreProfile(440.0), 0.8, seed=2)
    x = enc.prepare_input(clip)
    assert not np.allclose(enc.embed_batch([x]).data, other.embed_batch([x]).data)
    other.load_state(enc.state_dict())
    np.testing.assert_array_equal(enc.embed_batch([x]).data, other.embed_batch([x]).data)
