import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vocalrestore.audio_io import Waveform, read_wav, write_wav
from vocalrestore.cli import main
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


def _extensible(plain, path, tag, cb_size=22, valid_bits=None):
    """The WAV file `plain` rewritten with a WAVE_FORMAT_EXTENSIBLE fmt chunk
    whose KSDATAFORMAT SubFormat GUID carries format tag `tag`, declaring
    `valid_bits` (default: the container's) valid bits a sample."""
    raw = plain.read_bytes()
    _, channels, sr, byte_rate, align, bits = struct.unpack("<HHIIHH", raw[20:36])
    fmt = (struct.pack("<HHIIHHHHI", 0xFFFE, channels, sr, byte_rate, align, bits,
                       cb_size, valid_bits or bits, 0)
           + struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71"))
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + raw[raw.index(b"data"):]
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
def test_extensible_header_reads_as_plain(tmp_path, encoding):
    """A WAVE_FORMAT_EXTENSIBLE header, as recorders write for 24-bit and
    float files, reads exactly as the plain header over the same data."""
    plain = tmp_path / "plain.wav"
    x = _rand(700, seed=6)
    if encoding == "float32":
        write_wav(Waveform(x, 44100), plain)
        tag = 3
    else:
        bits = int(encoding[3:])
        _pcm_wav(plain, np.round(x * 2.0 ** (bits - 1)), bits, sr=44100)
        tag = 1
    want = read_wav(plain)
    got = read_wav(_extensible(plain, tmp_path / "ext.wav", tag))
    assert got.sample_rate == want.sample_rate == 44100
    assert np.array_equal(got.samples, want.samples)


def test_pcm32_extremes(tmp_path):
    """32-bit integer PCM decodes with 2^-31 scaling, full scale included."""
    back = read_wav(_pcm_wav(tmp_path / "e.wav", [-(1 << 31), 0, 1, (1 << 31) - 1], 32))
    assert np.array_equal(back.samples, [-1.0, 0.0, 2.0**-31, 1.0 - 2.0**-31])


@pytest.mark.parametrize("valid_bits", [None, 32, 24], ids=["plain", "extensible", "24_in_32"])
def test_pcm32_reads_as_float32(tmp_path, valid_bits):
    """24-bit values shifted into 32-bit containers, in a plain header, an
    extensible one, and an extensible one that declares 24 valid bits (as
    recorders write them), read exactly as a float32 file of the same
    values: 24-bit integers over 2^23 are exact in float32."""
    ints = np.round(_rand(700, seed=8) * 2.0**23)
    write_wav(Waveform(ints / 2.0**23, 44100), tmp_path / "f.wav")
    want = read_wav(tmp_path / "f.wav")
    path = _pcm_wav(tmp_path / "pcm32.wav", ints * 256, 32, sr=44100)
    if valid_bits is not None:
        path = _extensible(path, tmp_path / "ext.wav", 1, valid_bits=valid_bits)
    got = read_wav(path)
    assert got.sample_rate == 44100
    assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("tag, cb_size", [(2, 22), (1, 0)], ids=["adpcm", "short_extension"])
def test_other_extensible_headers_refused(tmp_path, tag, cb_size):
    """An extensible header with any other SubFormat (here ADPCM), or too
    short an extension to hold one, is refused with the file's name."""
    plain = _pcm_wav(tmp_path / "plain.wav", [0, 1, -1], 16)
    path = _extensible(plain, tmp_path / "ext.wav", tag, cb_size)
    with pytest.raises(FormatError, match=r"ext\.wav: unsupported encoding"):
        read_wav(path)


def test_degrade_reads_an_extensible_float32_input(tmp_path):
    """`degrade` takes an extensible float32 input as it takes a plain one."""
    plain, out = tmp_path / "plain.wav", tmp_path / "out.wav"
    write_wav(Waveform(_rand(9600, seed=7), 48000), plain)
    inp = _extensible(plain, tmp_path / "ext.wav", 3)
    assert main(["degrade", "--in", str(inp), "--out", str(out), "--seed", "3"]) == 0
    assert len(read_wav(out)) == 9600


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
