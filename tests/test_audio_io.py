import wave

import numpy as np
import pytest

from protoaudio.audio_io import (
    TimbreProfile,
    Waveform,
    load_wav,
    synth_clip,
    write_wav,
)
from protoaudio.errors import (
    CorruptContainerError,
    InvalidProfileError,
    UnsupportedFormatError,
)

from conftest import write_pcm16


def test_load_one_second_clip(tone_wav):
    w = load_wav(tone_wav)
    assert len(w) == 16000
    assert w.duration_s == 1.0
    assert w.samples.dtype == np.float32


def test_load_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    write_pcm16(path, [0, 0, 0, 0], channels=2)
    with pytest.raises(UnsupportedFormatError, match="channels=2"):
        load_wav(path)


def test_load_rejects_wrong_rate(tmp_path):
    path = tmp_path / "slow.wav"
    write_pcm16(path, [0, 1, 2], rate=8000)
    with pytest.raises(UnsupportedFormatError, match="8000"):
        load_wav(path)


def test_load_rejects_wrong_bit_depth(tmp_path):
    path = tmp_path / "pcm8.wav"
    write_pcm16(path, [1, 2, 3], sampwidth=1)
    with pytest.raises(UnsupportedFormatError, match="bit depth=8"):
        load_wav(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data at all, not even close")
    with pytest.raises(CorruptContainerError):
        load_wav(path)


@pytest.mark.parametrize("cut", [1, 100])
def test_load_rejects_truncated_data_chunk(tone_wav, cut):
    """A data chunk holding fewer bytes than its header's frame count: half a
    sample short (an odd byte count) or 50 whole samples short."""
    tone_wav.write_bytes(tone_wav.read_bytes()[:-cut])
    with pytest.raises(CorruptContainerError, match="truncated data chunk"):
        load_wav(tone_wav)


def test_load_rejects_bad_fmt_chunk_size(tone_wav):
    """A `fmt ` chunk size of 0x20 where the file has 0x10 (byte 16) sends
    the standard library's chunk reader past its chunk, which it reports as
    a bare RuntimeError; load_wav reports a corrupt container."""
    blob = bytearray(tone_wav.read_bytes())
    assert blob[12:20] == b"fmt \x10\0\0\0"
    blob[16] = 0x20
    tone_wav.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainerError, match="bad chunk size"):
        load_wav(tone_wav)


def test_pcm16_scaling_convention(tmp_path):
    # oracle: value / 32768 by hand
    path = tmp_path / "extremes.wav"
    write_pcm16(path, [-32768, 16384, 32767, 0])
    w = load_wav(path)
    assert w.samples[0] == pytest.approx(-1.0, abs=0)
    assert w.samples[1] == pytest.approx(0.5, abs=0)
    assert w.samples[2] == pytest.approx(32767 / 32768, abs=0)
    assert w.samples[3] == 0.0


def test_wav_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(7)
    ints = rng.integers(-32768, 32768, size=2048)
    src = tmp_path / "src.wav"
    write_pcm16(src, ints)
    w1 = load_wav(src)
    dst = tmp_path / "dst.wav"
    write_wav(dst, w1)
    w2 = load_wav(dst)
    np.testing.assert_array_equal(w1.samples, w2.samples)
    np.testing.assert_allclose(w1.samples, ints / 32768.0, atol=0)


def test_write_read_via_stdlib(tmp_path):
    # container written by write_wav parses with stdlib wave as 16k mono PCM16
    w = synth_clip(TimbreProfile(440.0), 0.25, seed=0)
    path = tmp_path / "out.wav"
    write_wav(path, w)
    with wave.open(str(path), "rb") as wf:
        assert wf.getnchannels() == 1
        assert wf.getsampwidth() == 2
        assert wf.getframerate() == 16000
        assert wf.getnframes() == len(w)


def test_synth_pure_tone_fft_peak():
    # oracle: FFT peak-pick; 1 s at 16 kHz gives 1 Hz bins
    w = synth_clip(TimbreProfile(440.0, (1.0,), 0.0), 1.0, seed=3)
    assert len(w) == 16000
    spec = np.abs(np.fft.rfft(w.samples.astype(np.float64)))
    assert abs(np.argmax(spec) - 440) <= 1


def test_synth_deterministic():
    p = TimbreProfile(523.0, (1.0, 0.4, 0.2), 0.02)
    a = synth_clip(p, 0.7, seed=99)
    b = synth_clip(p, 0.7, seed=99)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synth_clip(p, 0.7, seed=100)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_duration_bounds():
    p = TimbreProfile(440.0)
    with pytest.raises(InvalidProfileError):
        synth_clip(p, 0.05, seed=0)
    with pytest.raises(InvalidProfileError):
        synth_clip(p, 31.0, seed=0)


def test_synth_peak_normalized():
    w = synth_clip(TimbreProfile(310.0, (1.0, 0.8), 0.05), 1.3, seed=5)
    assert np.max(np.abs(w.samples)) == pytest.approx(0.9, abs=1e-4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(fundamental_hz=70.0),
        dict(fundamental_hz=2100.0),
        dict(fundamental_hz=440.0, harmonic_amps=(0.0, 0.0)),
        dict(fundamental_hz=440.0, harmonic_amps=(1.0, -0.1)),
        dict(fundamental_hz=440.0, harmonic_amps=(1.0,) * 9),
        dict(fundamental_hz=440.0, noise_floor=0.2),
        dict(fundamental_hz=1500.0, harmonic_amps=(1.0,) * 6),  # partial 6 at 9 kHz
    ],
)
def test_profile_invariants(kwargs):
    with pytest.raises(InvalidProfileError):
        TimbreProfile(**kwargs)


def test_partial_dominance_over_noise_floor_zero():
    # each declared partial beats every non-partial bin by >= 20 dB in energy
    p = TimbreProfile(300.0, (1.0, 0.5, 0.25), 0.0)
    w = synth_clip(p, 1.0, seed=0)
    energy = np.abs(np.fft.rfft(w.samples.astype(np.float64))) ** 2
    partial_bins = [300, 600, 900]
    mask = np.ones(energy.size, dtype=bool)
    for b in partial_bins:
        mask[b - 2:b + 3] = False
    floor = energy[mask].max()
    for b in partial_bins:
        assert energy[b] / max(floor, 1e-30) >= 100.0


def test_waveform_rejects_out_of_range():
    with pytest.raises(UnsupportedFormatError):
        Waveform(np.array([0.0, 1.5], dtype=np.float32))
    with pytest.raises(UnsupportedFormatError):
        Waveform(np.array([], dtype=np.float32))
