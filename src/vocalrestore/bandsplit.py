"""Mel-spaced frequency partition, per-band power envelopes, and the
interleaved re/im row format in both directions.

pack_band_features gives each band of width bw 2*bw + 1 input channels per
frame: envelope-normalized real/imaginary values interleaved bin-major
(re0, im0, re1, im1, ...) followed by the log-envelope row. reassemble is
its inverse for the synthesis heads' output: per-band (2*bw, T) rows in the
same re/im order back to complex bins in the rows' precision. The module
holds no configuration; its one constant is the envelope floor ENVELOPE_EPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, ShapeError
from .spectral import ComplexSpectrogram

ENVELOPE_EPS = 1e-8   # every envelope is >= 1e-4: silence packs as zeros and a finite log


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class BandLayout:
    widths: tuple
    F: int

    def __post_init__(self):
        w = tuple(int(x) for x in self.widths)
        if any(x < 1 for x in w):
            raise ShapeError(f"band widths must be >= 1, got {w}")
        if sum(w) != self.F:
            raise ShapeError(f"widths sum to {sum(w)}, expected F={self.F}")
        object.__setattr__(self, "widths", w)

    @property
    def n_band(self) -> int:
        return len(self.widths)

    @property
    def boundaries(self) -> tuple:
        """Cumulative bin offsets, length n_band + 1, ending at F."""
        return (0, *accumulate(self.widths))

    def slices(self):
        b = self.boundaries
        return [slice(b[i], b[i + 1]) for i in range(self.n_band)]


def mel_band_layout(F: int, n_band: int, sample_rate: int) -> BandLayout:
    """Partition F bins into n_band contiguous sub-bands with mel-spaced
    boundaries.

    Boundaries come from n_band+1 equally spaced mel points over
    [0, sample_rate/2]. Narrow low bands are forced to width 1 (resolved
    from the low end, where mel bands are narrowest) and the rest are
    rescaled to keep the total at F, then rounded by largest remainder.
    Each integer width stays within one bin of its ideal real width, so
    widths are nondecreasing after the forced prefix.
    """
    if not (1 <= n_band <= F):
        raise ShapeError(f"need 1 <= n_band <= F, got n_band={n_band}, F={F}")
    if sample_rate < 1:
        raise ConfigError(f"sample_rate must be >= 1, got {sample_rate}")
    mel_pts = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_band + 1)
    hz = mel_to_hz(mel_pts)
    real = np.diff(hz / (sample_rate / 2.0) * F)   # increasing real widths

    # Force sub-unit widths (always a prefix) to 1 and rescale the rest.
    forced = 0
    scaled = real.copy()
    while forced < n_band:
        remaining = F - forced
        scaled = real[forced:] * remaining / real[forced:].sum()
        if scaled[0] >= 1.0 or forced == n_band - 1:
            break
        forced += int(np.searchsorted(scaled, 1.0))

    widths = np.ones(n_band, dtype=int)
    base = np.floor(scaled).astype(int)
    spare = (F - forced) - int(base.sum())
    # Largest remainder, ties broken toward higher (wider) bands, keeps
    # the rounded widths nondecreasing when the real widths are.
    order = np.argsort(scaled - base, kind="stable")[::-1][:spare]
    base[order] += 1
    widths[forced:] = np.maximum(base, 1)

    # Rounding at the forced/unforced boundary can leave the total off by
    # the clamp above; settle any residue on the widest band.
    widths[-1] += F - int(widths.sum())
    return BandLayout(tuple(widths.tolist()), F)


def band_envelope(spec: ComplexSpectrogram, layout: BandLayout) -> np.ndarray:
    """(n_band, T_s) power envelope p_i(t) = sqrt(sum over band bins of |X|^2 + ENVELOPE_EPS)."""
    if layout.F != spec.bins.shape[0]:
        raise ShapeError(f"layout covers {layout.F} bins, spectrogram has {spec.bins.shape[0]}")
    power = spec.bins.real ** 2 + spec.bins.imag ** 2
    return np.sqrt(np.stack([power[sl].sum(axis=0) for sl in layout.slices()]) + ENVELOPE_EPS)


def pack_band_features(spec: ComplexSpectrogram, layout: BandLayout) -> list[np.ndarray]:
    """Per band: (2*bw_i + 1, T_s) array of normalized re/im plus log-envelope."""
    packed = []
    for sl, p in zip(layout.slices(), band_envelope(spec, layout)):
        norm = spec.bins[sl] / p  # broadcast over bins
        bw = norm.shape[0]
        feats = np.empty((2 * bw + 1, spec.n_frames))
        feats[0:2 * bw:2] = norm.real
        feats[1:2 * bw:2] = norm.imag
        feats[-1] = np.log(p)
        packed.append(feats)
    return packed


def reassemble(band_rows: list[np.ndarray], layout: BandLayout) -> np.ndarray:
    """Per-band (2*bw_i, T_s) rows interleaved (re0, im0, re1, im1, ...), as
    pack_band_features orders them, back to (F, T_s) complex bins: complex64
    from float32 rows, complex128 from float64."""
    if len(band_rows) != layout.n_band:
        raise ShapeError(f"got {len(band_rows)} band outputs for {layout.n_band} bands")
    T = band_rows[0].shape[-1]
    for i, (rows, w) in enumerate(zip(band_rows, layout.widths)):
        if rows.shape != (2 * w, T):
            raise ShapeError(f"band {i}: expected shape ({2 * w}, {T}), got {rows.shape}")
    rows = np.concatenate(band_rows, axis=0)
    return rows[0::2] + 1j * rows[1::2]
