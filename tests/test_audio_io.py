import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vocalrestore.audio_io import Waveform, read_wav, write_wav
from vocalrestore.errors import FormatError, ShapeError


def _rand(n, seed=0):
    return np.clip(np.random.default_rng(seed).standard_normal(n) * 0.3, -0.99, 0.99)


def _pcm_wav(path, ints, bits, channels=1, sr=48000):
    """A hand-built integer PCM WAV file: `ints` as little-endian bits-bit
    samples, interleaved over `channels`."""
    width = bits // 8
    data = b"".join(struct.pack("<i", int(v))[:width] for v in ints)
    fmt = struct.pack("<HHIIHH", 1, channels, sr, sr * channels * width, channels * width, bits)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def test_waveform_validation():
    with pytest.raises(ShapeError, match="expected 1-D sample buffer"):
        Waveform(np.zeros((2, 10)), 48000)
    with pytest.raises(FormatError):
        Waveform(np.array([0.0, np.nan]), 48000)
    with pytest.raises(FormatError):
        Waveform(np.zeros(4), 0)


def test_float32_round_trip(tmp_path):
    x = _rand(1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.wav"
    write_wav(Waveform(x, 48000), path)
    back = read_wav(path)
    assert back.sample_rate == 48000
    assert np.array_equal(back.samples, x)


def test_pcm16_round_trip(tmp_path):
    """Samples quantized to a hand-built 16-bit file decode with 2^-15
    scaling, within one step of the originals."""
    x = _rand(1000, seed=4)
    back = read_wav(_pcm_wav(tmp_path / "a.wav", np.round(x * 32768.0), 16, sr=16000))
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768 + 1e-12
    extremes = read_wav(_pcm_wav(tmp_path / "e.wav", [-32768, 32767], 16))
    assert np.array_equal(extremes.samples, [-1.0, 1.0 - 2.0**-15])


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=20))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    x = _rand(n, seed=seed).astype(np.float32).astype(np.float64)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.wav")
        write_wav(Waveform(x, 24000), path)
        back = read_wav(path)
    assert np.array_equal(back.samples, x) and len(back) == n


def test_pcm24(tmp_path):
    """Hand-written 24-bit file decodes with 2^-23 scaling."""
    vals = [0, 1 << 22, -(1 << 22), (1 << 23) - 1]
    back = read_wav(_pcm_wav(tmp_path / "d.wav", vals, 24))
    assert np.allclose(back.samples, np.array(vals) / float(1 << 23))


def test_zero_sample_rate_names_file(tmp_path):
    path = _pcm_wav(tmp_path / "z.wav", [0, 1], 16, sr=0)
    with pytest.raises(FormatError, match=r"z\.wav: sample rate must be >= 1, got 0"):
        read_wav(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError, match="nope.wav"):
        read_wav("/nonexistent/nope.wav")


def test_not_a_wav(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"not audio at all, sorry")
    with pytest.raises(FormatError):
        read_wav(path)


def test_truncated_data(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(Waveform(_rand(500), 48000), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 700])
    with pytest.raises(FormatError, match="data chunk truncated"):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    path = _pcm_wav(tmp_path / "s.wav", [0, 0, 0, 0], 16, channels=2)
    with pytest.raises(FormatError, match="expected mono, got 2 channels"):
        read_wav(path)
