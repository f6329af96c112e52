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
    write_wav(Waveform(x, 48000), path, encoding="float32")
    back = read_wav(path)
    assert back.sample_rate == 48000
    assert np.array_equal(back.samples, x)


def test_pcm16_round_trip(tmp_path):
    x = _rand(1000, seed=4)
    path = tmp_path / "a.wav"
    write_wav(Waveform(x, 16000), path, encoding="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768 + 1e-12


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=20))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    x = _rand(n, seed=seed).astype(np.float32).astype(np.float64)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.wav")
        write_wav(Waveform(x, 24000), path)
        back = read_wav(path)
    assert np.array_equal(back.samples, x) and len(back) == n


def test_pcm16_clamps_extremes(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(Waveform(np.array([-2.0, 2.0, 1.0, -1.0]), 8000), path, encoding="pcm16")
    back = read_wav(path)
    assert back.samples.min() >= -1.0
    assert back.samples.max() <= 1.0 - 2.0**-15 + 1e-12


def test_pcm24(tmp_path):
    """Hand-written 24-bit file decodes with 2^-23 scaling."""
    vals = [0, 1 << 22, -(1 << 22), (1 << 23) - 1]
    data = b"".join(struct.pack("<i", v)[:3] for v in vals)
    fmt = struct.pack("<HHIIHH", 1, 1, 48000, 48000 * 3, 3, 24)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    raw = b"RIFF" + struct.pack("<I", len(body)) + body
    path = tmp_path / "d.wav"
    path.write_bytes(raw)
    back = read_wav(path)
    assert np.allclose(back.samples, np.array(vals) / float(1 << 23))


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
    data = struct.pack("<4h", 0, 0, 0, 0)
    fmt = struct.pack("<HHIIHH", 1, 2, 48000, 48000 * 4, 4, 16)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path = tmp_path / "s.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match="expected mono, got 2 channels"):
        read_wav(path)
