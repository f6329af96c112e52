"""Mono WAV reading/writing and the canonical in-memory waveform type.

Reads RIFF/WAVE with PCM 16-bit, PCM 24-bit, and IEEE float-32 encodings,
in the plain or the WAVE_FORMAT_EXTENSIBLE header, single channel only, and
writes IEEE float-32. Amplitudes are never clamped; the degradation pipeline
relies on super-unit headroom internally.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError


@dataclass(frozen=True)
class Waveform:
    """Mono sample buffer with its sample rate.

    samples are dimensionless amplitudes, nominal range [-1, 1], stored as
    float64. All values must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"expected 1-D sample buffer, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise FormatError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise FormatError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
# The KSDATAFORMAT SubFormat GUIDs after their leading 2-byte format tag.
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def read_wav(path) -> Waveform:
    """Read a mono WAV file (PCM 16/24/32-bit or float-32).

    Integer PCM is scaled to [-1, 1) by dividing by 2**(bits-1); float data
    is passed through unscaled. An extensible header is read by the format
    tag its KSDATAFORMAT SubFormat GUID carries; fewer valid bits than the
    container holds (24 in 32) sit in its high bits, so they scale by the
    container's size.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError(
                    f"{path}: data chunk truncated ({len(body)} of {chunk_size} bytes)"
                )
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or len(fmt) < 16:
        raise FormatError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if (audio_format == _FMT_EXTENSIBLE and len(fmt) >= 40
            and struct.unpack("<H", fmt[16:18])[0] >= 22 and fmt[26:40] == _KSDATAFORMAT_TAIL):
        (audio_format,) = struct.unpack("<H", fmt[24:26])
    if n_channels != 1:
        raise FormatError(f"{path}: expected mono, got {n_channels} channels")
    if sample_rate < 1:
        raise FormatError(f"{path}: sample rate must be >= 1, got {sample_rate}")

    if audio_format == _FMT_PCM and bits == 16:
        if len(data) % 2:
            raise FormatError(f"{path}: data chunk not a whole number of samples")
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _FMT_PCM and bits == 24:
        if len(data) % 3:
            raise FormatError(f"{path}: data chunk not a whole number of samples")
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        ints = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        samples = ints.astype(np.float64) / float(1 << 23)
    elif audio_format == _FMT_PCM and bits == 32:
        if len(data) % 4:
            raise FormatError(f"{path}: data chunk not a whole number of samples")
        samples = np.frombuffer(data, dtype="<i4").astype(np.float64) / 2.0**31
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        if len(data) % 4:
            raise FormatError(f"{path}: data chunk not a whole number of samples")
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise FormatError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits})"
        )

    if samples.size and not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: non-finite sample values")
    return Waveform(samples, sample_rate)


def check_writable_rate(sample_rate: int) -> None:
    """Raise ConfigError for a rate write_wav cannot store: a float32 WAV's
    byte rate, 4 bytes a sample, is a u32 in its header."""
    if 4 * sample_rate > 0xFFFFFFFF:
        raise ConfigError(f"sample rate {sample_rate} Hz is above the float32 WAV "
                          f"limit of {0xFFFFFFFF // 4} Hz (its byte rate is a u32)")


def write_wav(wave: Waveform, path) -> None:
    """Write a mono IEEE float-32 WAV file, storing float32 samples bit-exactly."""
    check_writable_rate(wave.sample_rate)
    payload = wave.samples.astype("<f4").tobytes()
    # 4-byte samples: block align 4, and the data chunk needs no pad byte.
    fmt = struct.pack("<HHIIHH", _FMT_IEEE_FLOAT, 1, wave.sample_rate, 4 * wave.sample_rate, 4, 32)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)
