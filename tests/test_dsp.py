import dataclasses
import math

import numpy as np
import pytest

from protoaudio.audio_io import TimbreProfile, Waveform, synth_clip
from protoaudio.dsp import (
    FrontendConfig,
    build_mel_filterbank,
    extract_features,
    frame_signal,
    load_features,
    mel_inverse,
    mel_scale,
    power_spectrum,
    save_features,
)
from protoaudio.errors import ConfigError, DomainError

CFG = FrontendConfig()


def expected_frame_count(n):
    # independent oracle for the sliding-frame arithmetic
    if n < CFG.frame_len_samples:
        return 1
    return (n - CFG.frame_len_samples) // CFG.hop_samples + 1


def test_one_second_gives_98_frames():
    assert expected_frame_count(16000) == 98
    frames = frame_signal(np.zeros(16000))
    assert frames.shape == (98, 400)


def test_exact_one_frame_boundary():
    assert frame_signal(np.zeros(400)).shape == (1, 400)


def test_short_input_zero_padded():
    x = np.ones(100)
    frames = frame_signal(x)
    assert frames.shape == (1, 400)
    assert np.all(frames[0, 100:] == 0.0)


def test_frames_match_direct_slicing():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 3000)
    frames = frame_signal(x)
    win = np.hamming(400)
    for i in range(frames.shape[0]):
        np.testing.assert_allclose(frames[i], x[i * 160:i * 160 + 400] * win, atol=0)


def test_hamming_center_and_symmetry():
    w = np.hamming(401)
    assert w[200] == pytest.approx(0.54 - 0.46 * math.cos(math.pi), abs=0)
    assert w[200] == 1.0
    np.testing.assert_allclose(w, w[::-1], atol=0)


def test_mel_scale_values():
    assert mel_scale(0.0) == 0.0
    assert mel_scale(700.0) == pytest.approx(781.17, abs=0.01)
    # same constant derived independently
    assert mel_scale(700.0) == pytest.approx(2595.0 * math.log10(2.0), abs=1e-9)


def test_mel_round_trip():
    assert mel_inverse(mel_scale(3456.7)) == pytest.approx(3456.7, abs=1e-6)
    for f in [1.0, 123.4, 7999.0]:
        assert mel_inverse(mel_scale(f)) == pytest.approx(f, rel=1e-9)


def test_mel_domain_errors():
    with pytest.raises(DomainError):
        mel_scale(-1.0)
    with pytest.raises(DomainError):
        mel_inverse(-5.0)


def reference_filterbank():
    # direct triangle evaluation, written independently of the implementation
    lo_mel = 2595.0 * np.log10(1.0 + CFG.fmin_hz / 700.0)
    hi_mel = 2595.0 * np.log10(1.0 + CFG.fmax_hz / 700.0)
    pts = 700.0 * (10.0 ** (np.linspace(lo_mel, hi_mel, CFG.n_mels + 2) / 2595.0) - 1.0)
    bins = np.arange(CFG.fft_size // 2 + 1) * 16000.0 / CFG.fft_size
    fb = np.zeros((CFG.n_mels, bins.size))
    for m in range(CFG.n_mels):
        for k, f in enumerate(bins):
            if pts[m] < f < pts[m + 1]:
                fb[m, k] = (f - pts[m]) / (pts[m + 1] - pts[m])
            elif f == pts[m + 1]:
                fb[m, k] = 1.0
            elif pts[m + 1] < f < pts[m + 2]:
                fb[m, k] = (pts[m + 2] - f) / (pts[m + 2] - pts[m + 1])
    return fb, pts


def test_filterbank_matches_reference():
    fb = build_mel_filterbank()
    ref, _ = reference_filterbank()
    assert fb.shape == (64, 257)
    np.testing.assert_allclose(fb, ref, atol=1e-12)


def test_filterbank_rows_positive_and_peaks_interior():
    fb = build_mel_filterbank()
    assert np.all(fb >= 0)
    bin_hz = np.arange(257) * 16000.0 / 512
    for m in range(64):
        assert fb[m].max() > 0
        peak_hz = bin_hz[np.argmax(fb[m])]
        assert CFG.fmin_hz < peak_hz < CFG.fmax_hz


def test_filterbank_peaks_within_a_bin_of_their_breakpoints():
    fb = build_mel_filterbank()
    _, pts = reference_filterbank()
    bin_hz = np.arange(257) * 16000.0 / 512
    for m in range(64):
        # weights fall off monotonically from the apex, so the argmax bin is
        # one of the two bins bracketing it: within one bin width
        peak_hz = bin_hz[np.argmax(fb[m])]
        assert abs(peak_hz - pts[m + 1]) <= 16000.0 / 512 + 1e-9


def test_filterbank_covers_interior_bins():
    fb = build_mel_filterbank()
    bin_hz = np.arange(257) * 16000.0 / 512
    interior = (bin_hz > CFG.fmin_hz) & (bin_hz < CFG.fmax_hz)
    assert np.all(fb[:, interior].sum(axis=0) > 0)


def test_filterbank_is_built_once_per_config_and_read_only():
    """Features of many clips, through extract_features and the encoders'
    prepare_input, build the filterbank of the fixed front end once."""
    from protoaudio.encoders import EncoderSpec, build_encoder
    build_mel_filterbank.cache_clear()
    encoders = [build_encoder(EncoderSpec(kind, "desk")) for kind in
                ("vgg", "lstm", "sincnet+vgg", "sincnet+lstm")]
    for seed in range(3):
        w = synth_clip(TimbreProfile(300.0 + 100 * seed), 0.5, seed=seed)
        extract_features(w)
        for enc in encoders[:2]:
            enc.prepare_input(w)
    info = build_mel_filterbank.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 8, 1)
    assert not build_mel_filterbank().flags.writeable


def test_extract_shape_and_floor():
    w = synth_clip(TimbreProfile(500.0), 1.0, seed=1)
    feats = extract_features(w)
    assert feats.shape == (98, 64)
    assert np.all(np.isfinite(feats))
    assert np.all(feats >= np.log(CFG.log_floor) - 1e-12)


def test_all_zero_waveform_hits_log_floor():
    feats = extract_features(np.zeros(16000))
    np.testing.assert_allclose(feats, np.log(CFG.log_floor), atol=1e-12)


def tone_argmax_oracle(freq_hz):
    # channel whose triangle weight at the tone frequency is largest
    _, pts = reference_filterbank()
    weights = np.zeros(CFG.n_mels)
    for m in range(CFG.n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        if lo < freq_hz < mid:
            weights[m] = (freq_hz - lo) / (mid - lo)
        elif mid <= freq_hz < hi:
            weights[m] = (hi - freq_hz) / (hi - mid)
    return int(np.argmax(weights))


def safe_tone_frequencies(count, rng):
    """Random tones away from triangle crossover points, where argmax is unambiguous."""
    _, pts = reference_filterbank()
    crossovers = (pts[1:-1] + pts[2:]) / 2.0
    freqs = []
    while len(freqs) < count:
        f = rng.uniform(300.0, 6000.0)
        if np.min(np.abs(crossovers - f)) > 60.0:
            freqs.append(f)
    return freqs


def test_pure_tone_lands_in_nearest_channel():
    rng = np.random.default_rng(42)
    for f in [1000.0] + safe_tone_frequencies(5, rng):
        t = np.arange(16000) / 16000.0
        w = Waveform((0.8 * np.sin(2 * np.pi * f * t)).astype(np.float32))
        feats = extract_features(w)
        assert int(np.argmax(feats.mean(axis=0))) == tone_argmax_oracle(f)


def test_parseval_power_normalization():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 8000)
    frames = frame_signal(x)
    power = power_spectrum(frames)
    per_frame_energy = (frames**2).sum(axis=1)
    np.testing.assert_allclose(power.sum(axis=1), per_frame_energy, rtol=1e-6)


def test_amplitude_scaling_shift_bound_and_argmax():
    w = synth_clip(TimbreProfile(620.0, (1.0, 0.5), 0.01), 0.9, seed=2)
    base = extract_features(w.samples)
    for c in [1.5, 4.0]:
        # scale the raw float array (frame_signal accepts bare arrays)
        scaled = extract_features(w.samples.astype(np.float64) * c)
        delta = scaled - base
        assert np.all(delta <= 2.0 * np.log(c) + 1e-9)
        assert np.all(delta >= -1e-9)
        np.testing.assert_array_equal(
            np.argmax(scaled, axis=1), np.argmax(base, axis=1)
        )


def test_time_reversal_with_aligned_hop():
    """400 + 160·k samples hold k + 1 frames that align from both ends, so
    the reversed clip's frames are the original's, reversed, in reverse
    order; the hamming window is symmetric and the power spectrum of a
    reversed real frame is the frame's own."""
    rng = np.random.default_rng(8)
    for k in (0, 1, 4, 30):
        x = rng.uniform(-1, 1, 400 + 160 * k)
        fwd = extract_features(x)
        rev = extract_features(x[::-1])
        assert fwd.shape == (k + 1, 64)
        np.testing.assert_allclose(rev, fwd[::-1], atol=1e-9)


def test_feature_dump_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(98, 64))
    path = tmp_path / "feats.lmel"
    save_features(path, feats)
    blob = path.read_bytes()
    assert blob[:4] == b"LMEL"
    assert len(blob) == 16 + 98 * 64 * 4
    loaded = load_features(path)
    np.testing.assert_array_equal(loaded, feats.astype(np.float32).astype(np.float64))


def test_feature_dump_rejects_payload_not_whole_floats(tmp_path):
    """One byte appended to a valid dump leaves a payload that is not a
    whole number of float32s: a ConfigError, as a short one of whole floats."""
    path = tmp_path / "feats.lmel"
    save_features(path, np.zeros((3, 64)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ConfigError, match="payload of 769 bytes != 3x64 floats"):
        load_features(path)


@pytest.mark.parametrize("shape", [(3, 40), (0, 64)])
def test_feature_dump_rejects_shapes_no_encoder_takes(tmp_path, shape):
    """A dump of 40 bands, or of no frames, holds whole floats, but the
    front end never gives it and no encoder reads it."""
    path = tmp_path / "feats.lmel"
    save_features(path, np.zeros(shape))
    with pytest.raises(ConfigError, match=f"{shape[0]}x{shape[1]} features; the front end "
                                          "gives T >= 1 frames of 64 mel bands"):
        load_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_dump_rejects_non_finite_values(tmp_path, value):
    """A NaN or infinite value, as a flipped exponent byte makes, fails
    when the dump is read, not in the encoder that gets it."""
    feats = np.zeros((3, 64))
    feats[1, 7] = value
    path = tmp_path / "feats.lmel"
    save_features(path, feats)
    with pytest.raises(ConfigError, match="NaN or infinite"):
        load_features(path)


def test_feature_dump_rejects_a_signalling_nan_without_a_warning(tmp_path, recwarn):
    """A signalling NaN, whose float64 cast warns `invalid value`, is refused
    before the cast."""
    path = tmp_path / "feats.lmel"
    save_features(path, np.zeros((3, 64)))
    blob = bytearray(path.read_bytes())
    blob[16 + 4 * 70:16 + 4 * 71] = bytes.fromhex("0100a07f")   # 0x7fa00001, quiet bit clear
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="NaN or infinite"):
        load_features(path)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_feature_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.lmel"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(ConfigError):
        load_features(path)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(frame_len_samples=600),          # > fft_size
        dict(hop_samples=0),
        dict(fmin_hz=5000.0, fmax_hz=4000.0),
        dict(fmax_hz=9000.0),
        dict(n_mels=1),
        dict(log_floor=0.0),
    ],
)
def test_config_invariants(kwargs):
    """The front end's sizes are constants: no setting, valid or not, can be
    made, so none of these once-rejected ones can reach the DSP."""
    with pytest.raises(TypeError):
        FrontendConfig(**kwargs)
    assert dataclasses.fields(FrontendConfig()) == ()
