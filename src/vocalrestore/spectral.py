"""Forward/inverse STFT and magnitude extraction.

Analysis uses a periodic Hann window with reflect-mode center padding;
synthesis is weighted overlap-add with per-sample squared-window
normalization, which reconstructs exactly wherever the squared-window
overlap sum is bounded away from zero.

Transforms run in 64-bit floats throughout. The model's analysis grid is
ModelConfig.stft_params; SPEC_RESOLUTIONS are the grids the multi-resolution
spectral loss and the discriminator's STFT branches share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .errors import ConfigError, ShapeError

COLA_FLOOR = 1e-8


@lru_cache(maxsize=32)
def _window(n_fft: int) -> np.ndarray:
    """Periodic Hann, COLA-compliant at 50% overlap; read-only, because every
    caller on this n_fft shares the cached array."""
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class StftParams:
    n_fft: int
    hop: int

    def __post_init__(self):
        if self.n_fft <= 0 or self.n_fft % 2:
            raise ConfigError(f"n_fft must be positive and even, got {self.n_fft}")
        if not (0 < self.hop <= self.n_fft):
            raise ConfigError(f"need 0 < hop <= n_fft, got hop={self.hop}")

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def window_array(self) -> np.ndarray:
        return _window(self.n_fft)

    def frames(self, n_samples: int) -> int:
        """Number of frames stft() gives for n_samples >= 1 samples: one per
        hop, plus one more where only the far tail of the frames' windows
        reaches the last sample (squared-window sum <= COLA_FLOOR), which
        istft could not invert there. At hop = n_fft/2 that is the case for
        a few residues of n_samples mod hop."""
        t = 1 + n_samples // self.hop
        last = n_samples - 1 + self.n_fft // 2         # in padded coordinates
        first = max(0, (last - self.n_fft) // self.hop + 1)
        offsets = last - self.hop * np.arange(first, t)
        if np.sum(self.window_array()[offsets] ** 2) <= COLA_FLOOR:
            t += 1
        return t


SPEC_RESOLUTIONS = (
    StftParams(n_fft=2048, hop=512),
    StftParams(n_fft=1024, hop=256),
    StftParams(n_fft=512, hop=128),
)


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided complex spectrogram: bins has shape (F, T_s), complex128."""

    bins: np.ndarray
    params: StftParams

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 2:
            raise ShapeError(f"spectrogram must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] != self.params.n_bins:
            raise ShapeError(
                f"expected F={self.params.n_bins} bins, got {arr.shape[0]}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise ShapeError("spectrogram contains non-finite entries")
        object.__setattr__(self, "bins", arr)

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]


def stft(wave: Waveform, params: StftParams) -> ComplexSpectrogram:
    """Windowed framewise real FFT of a mono waveform."""
    x = np.asarray(wave.samples, dtype=np.float64)
    if len(x) < 1:
        raise ShapeError("cannot transform an empty waveform")

    n_fft, hop = params.n_fft, params.hop
    n_frames = params.frames(len(x))
    # center the frames, and pad the end further for frames()'s extra frame;
    # reflect padding needs at least two samples
    end = max(n_fft // 2, (n_frames - 1) * hop + n_fft // 2 - len(x))
    x = np.pad(x, (n_fft // 2, end), mode="reflect" if len(x) > 1 else "constant")

    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:n_frames]
    spec = np.fft.rfft(frames * params.window_array(), axis=1).T
    return ComplexSpectrogram(spec, params)


def istft(spec: ComplexSpectrogram, length: int, sample_rate: int) -> Waveform:
    """Weighted-overlap-add synthesis back to `length` samples.

    Raises ConfigError where the squared-window overlap sum falls
    below the COLA floor inside the requested output range.
    """
    params = spec.params
    n_fft, hop = params.n_fft, params.hop
    n_frames = spec.n_frames
    offset = n_fft // 2
    total = (n_frames - 1) * hop + n_fft
    if length < 0 or offset + length > total:
        raise ShapeError(
            f"requested length {length} exceeds synthesizable span {total - offset}"
        )

    win = params.window_array()
    frames = np.fft.irfft(spec.bins.T, n=n_fft, axis=1)
    frames *= win
    wsq = win ** 2
    # Segment j (hop samples, the last one possibly shorter) of frame t lands
    # in hop block t + j. Adding the segments from last to first sums each
    # sample's frames in ascending t, as a frame-by-frame loop does.
    n_seg = -(-n_fft // hop)
    out = np.zeros((n_frames + n_seg - 1, hop))
    den = np.zeros((n_frames + n_seg - 1, hop))
    for j in reversed(range(n_seg)):
        lo, hi = j * hop, min((j + 1) * hop, n_fft)
        out[j:j + n_frames, :hi - lo] += frames[:, lo:hi]
        den[j:j + n_frames, :hi - lo] += wsq[lo:hi]

    used = slice(offset, offset + length)
    out, den = out.reshape(-1)[used], den.reshape(-1)[used]
    if length and np.min(den) <= COLA_FLOOR:
        raise ConfigError(
            f"window/hop pair fails COLA inside output range "
            f"(min overlap {np.min(den):.3g})"
        )
    return Waveform(out / den, sample_rate)


def magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """Per-bin magnitudes sqrt(re^2 + im^2), shape (F, T_s)."""
    return np.abs(spec.bins)
