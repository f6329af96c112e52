import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vocalrestore.audio_io import Waveform
from vocalrestore.bandsplit import (
    ENVELOPE_EPS,
    BandLayout,
    band_envelope,
    hz_to_mel,
    mel_band_layout,
    mel_to_hz,
    pack_band_features,
    reassemble,
)
from vocalrestore.errors import ConfigError, ShapeError
from vocalrestore.spectral import StftParams, stft

from oracles import mel_boundary_oracle


def test_mel_scale_known_points():
    assert hz_to_mel(0.0) == 0.0
    assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-12
    assert abs(hz_to_mel(1000.0) - 999.9855) < 0.01


def test_mel_round_trip():
    f = np.linspace(0.0, 24000.0, 500)
    assert np.max(np.abs(mel_to_hz(hz_to_mel(f)) - f)) < 1e-6


def test_default_layout_invariants():
    layout = mel_band_layout(2049, 64, 48000)
    w = np.array(layout.widths)
    assert w.sum() == 2049
    assert w.min() >= 1
    assert np.all(np.diff(w) >= 0)
    real = mel_boundary_oracle(2049, 64, 48000)
    # Away from the forced-width prefix, the integer widths track the
    # ideal mel widths to within a bin.
    mask = real >= 1.0
    assert np.max(np.abs(w[mask] - real[mask])) < 1.0


@given(
    st.integers(min_value=8, max_value=600),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8000, 16000, 24000, 44100, 48000]),
)
@settings(max_examples=80, deadline=None)
def test_layout_property(F, n_band, sr):
    if n_band > F:
        n_band = F
    layout = mel_band_layout(F, n_band, sr)
    w = np.array(layout.widths)
    assert w.sum() == F and w.min() >= 1 and len(w) == n_band
    # nondecreasing after the forced width-1 prefix
    prefix = 0
    while prefix < n_band and w[prefix] == 1:
        prefix += 1
    assert np.all(np.diff(w[max(prefix - 1, 0):]) >= 0)


def test_layout_validation():
    with pytest.raises(ShapeError, match="band widths must be >= 1"):
        BandLayout((3, 0, 4), 7)
    with pytest.raises(ShapeError, match="widths sum to 7, expected F=8"):
        BandLayout((3, 4), 8)
    with pytest.raises(ShapeError, match="need 1 <= n_band <= F"):
        mel_band_layout(4, 9, 48000)
    for rate in (0, -16000):      # NaN mel widths: the prefix loop would never end
        with pytest.raises(ConfigError, match=f"sample_rate must be >= 1, got {rate}"):
            mel_band_layout(129, 8, rate)


def test_boundaries_and_slices():
    layout = BandLayout((1, 2, 5), 8)
    assert layout.boundaries == (0, 1, 3, 8)
    assert layout.slices() == [slice(0, 1), slice(1, 3), slice(3, 8)]


def _toy_spec(n=2000, seed=0):
    x = Waveform(np.random.default_rng(seed).standard_normal(n), 16000)
    return stft(x, StftParams(n_fft=256, hop=128))


def test_envelope_matches_definition():
    spec = _toy_spec()
    layout = mel_band_layout(129, 8, 16000)
    env = band_envelope(spec, layout)
    for i, sl in enumerate(layout.slices()):
        band = spec.bins[sl]
        ref = np.sqrt((band.real**2 + band.imag**2).sum(axis=0) + ENVELOPE_EPS)
        assert np.allclose(env[i], ref, rtol=0, atol=1e-12)
    assert np.all(env >= np.sqrt(ENVELOPE_EPS))


def test_envelope_zero_input_floor():
    spec = _toy_spec()
    zero = type(spec)(np.zeros_like(spec.bins), spec.params)
    env = band_envelope(zero, mel_band_layout(129, 8, 16000))
    assert np.allclose(env, np.sqrt(ENVELOPE_EPS))


def test_packed_features():
    spec = _toy_spec(seed=5)
    layout = mel_band_layout(129, 8, 16000)
    packed = pack_band_features(spec, layout)
    env = band_envelope(spec, layout)
    for i, (feats, sl) in enumerate(zip(packed, layout.slices())):
        bw = layout.widths[i]
        assert feats.shape == (2 * bw + 1, spec.n_frames)
        band = spec.bins[sl]
        assert np.allclose(feats[0:2 * bw:2], band.real / env[i])
        assert np.allclose(feats[1:2 * bw:2], band.imag / env[i])
        assert np.allclose(feats[-1], np.log(env[i]))
        # normalized re/im magnitudes are bounded by 1 per frame
        assert np.all(feats[: 2 * bw] ** 2 <= 1.0 + 1e-12)


def test_packed_features_follow_the_bins_precision():
    """complex64 bins pack to float32 rows, within 1e-6 of the float64 rows
    that the complex128 bins of the same signal give."""
    spec = _toy_spec(seed=5)
    layout = mel_band_layout(129, 8, 16000)
    spec32 = type(spec)(spec.bins.astype(np.complex64), spec.params)
    for rows32, rows in zip(pack_band_features(spec32, layout), pack_band_features(spec, layout)):
        assert rows32.dtype == np.float32 and rows.dtype == np.float64
        assert np.max(np.abs(rows32 - rows)) <= 1e-6


def test_reassemble_round_trip():
    """reassemble inverts pack_band_features' re/im interleave: the packed
    rows without the envelope row, times the envelope, give the bins back.
    float32 rows give complex64 bins, equal to the float64 result on the
    same rows."""
    spec = _toy_spec(seed=9)
    layout = mel_band_layout(129, 8, 16000)
    env = band_envelope(spec, layout)
    rows = [feats[:-1] * p for feats, p in zip(pack_band_features(spec, layout), env)]
    bins = reassemble(rows, layout)
    assert bins.dtype == np.complex128
    assert np.max(np.abs(bins - spec.bins)) <= 1e-12

    rows32 = [r.astype(np.float32) for r in rows]
    bins32 = reassemble(rows32, layout)
    assert bins32.dtype == np.complex64
    assert np.array_equal(bins32, reassemble([r.astype(np.float64) for r in rows32], layout))


def test_reassemble_shape_errors():
    layout = BandLayout((2, 3), 5)
    good = [np.zeros((4, 7)), np.zeros((6, 7))]
    assert reassemble(good, layout).shape == (5, 7)
    with pytest.raises(ShapeError, match="got 1 band outputs for 2 bands"):
        reassemble(good[:1], layout)
    with pytest.raises(ShapeError, match=r"band 0: expected shape \(4, 7\)"):
        reassemble([np.zeros((6, 7)), np.zeros((4, 7))], layout)
    with pytest.raises(ShapeError, match=r"band 1: expected shape \(6, 7\)"):
        reassemble([np.zeros((4, 7)), np.zeros((6, 8))], layout)
    with pytest.raises(ShapeError, match=r"band 0: expected shape \(4, 7\)"):
        reassemble([np.zeros((2, 2, 7)), np.zeros((6, 7))], layout)
