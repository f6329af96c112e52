import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vocalrestore.audio_io import Waveform
from vocalrestore.errors import ConfigError, ShapeError
from vocalrestore.generator import ModelConfig
from vocalrestore.spectral import COLA_FLOOR, ComplexSpectrogram, StftParams, istft, magnitude, stft

from oracles import naive_dft_fast, overlap_add_loops


TOY = StftParams(n_fft=256, hop=128)


def _wave(n, seed=0, sr=16000):
    return Waveform(np.random.default_rng(seed).standard_normal(n), sr)


def test_frame_matches_naive_dft():
    """Each STFT column equals the windowed-frame DFT, checked against an
    O(n^2) summation oracle."""
    x = _wave(1024, seed=3)
    spec = stft(x, TOY)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(256) / 256)
    padded = np.pad(x.samples, 128, mode="reflect")
    for t in [0, 3, spec.n_frames - 1]:
        frame = padded[t * 128 : t * 128 + 256] * window
        ref = naive_dft_fast(frame)
        assert np.max(np.abs(spec.bins[:, t] - ref)) < 1e-9


def test_frame_count():
    for n in [1, 100, 256, 257, 1000, 4096]:
        spec = stft(_wave(n), TOY)
        assert spec.bins.shape == (129, 1 + n // 128) == (129, TOY.frames(n))


@pytest.mark.parametrize("n_fft, hop, critical", [(4096, 2048, range(2036, 2048)),
                                                 (2048, 1024, range(1019, 1024)),
                                                 (1024, 512, (510, 511)),
                                                 (512, 256, ())])
def test_extra_frame_where_a_window_tail_covers_the_last_sample(n_fft, hop, critical):
    """At hop = n_fft/2 the last sample of a length a few samples short of a
    hop multiple lies in the far tail of the last frame's window alone,
    below the COLA floor. Exactly there stft() takes one more frame, and the
    round trip is exact; every other length keeps 1 + n // hop frames and
    the bins of the plain reflect-padded framing."""
    params = StftParams(n_fft=n_fft, hop=hop)
    window = params.window_array()
    for r in sorted({0, 1, hop // 2, *range(hop - 16, hop)}):
        n = 3 * hop + r
        x = _wave(n, seed=r)
        spec = stft(x, params)
        assert spec.n_frames == params.frames(n) == 1 + n // hop + (r in critical)
        assert np.max(np.abs(istft(spec, n, 16000).samples - x.samples)) < 1e-9
        if r not in critical:
            padded = np.pad(x.samples, n_fft // 2, mode="reflect")
            frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
            want = np.fft.rfft(frames[:1 + n // hop] * window, axis=1).T
            assert np.array_equal(spec.bins, want)


def test_round_trip_exact():
    x = _wave(48000, seed=1)
    rec = istft(stft(x, TOY), len(x.samples), x.sample_rate)
    assert np.max(np.abs(rec.samples - x.samples)) < 1e-10


@given(st.integers(min_value=300, max_value=5000), st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    x = _wave(n, seed=seed)
    rec = istft(stft(x, TOY), n, x.sample_rate)
    assert np.max(np.abs(rec.samples - x.samples)) < 1e-9


@pytest.mark.parametrize("n_fft, hop", [(4096, 2048), (2048, 256), (1024, 384), (256, 100)])
def test_istft_matches_frame_loop_bitwise(n_fft, hop):
    """The segment-wise overlap-add sums each sample's frames in the order a
    frame-by-frame loop does, so the output is bitwise equal to the loop's."""
    params = StftParams(n_fft=n_fft, hop=hop)
    x = _wave(5 * n_fft + 37, seed=n_fft + hop)
    bins = stft(x, params).bins
    bins = bins * np.exp(1j * np.random.default_rng(hop).uniform(-3, 3, bins.shape))
    spec = ComplexSpectrogram(bins, params)
    window = params.window_array()
    frames = np.fft.irfft(spec.bins.T, n=n_fft, axis=1) * window
    out, den = overlap_add_loops(frames, window ** 2, hop)
    used = slice(n_fft // 2, n_fft // 2 + len(x))
    want = (out / np.where(den > COLA_FLOOR, den, 1.0))[used]
    got = istft(spec, len(x), x.sample_rate)
    assert np.array_equal(got.samples, want)


def test_parseval_energy():
    """Folded one-sided spectral energy tracks padded-signal energy.

    With a periodic Hann window the frame energies sum (via Parseval) to
    the window-weighted signal energy; overlap-add of squared Hann at 50%
    overlap is a constant 0.75, so total spectral energy is about
    0.75 * n_fft * energy of the padded signal, up to edge effects.
    """
    x = _wave(48000, seed=7)
    spec = stft(x, TOY).bins
    w = np.abs(spec) ** 2
    folded = w[0] + w[-1] + 2 * w[1:-1].sum(axis=0)
    spectral = folded.sum() / TOY.n_fft
    padded = np.pad(x.samples, TOY.n_fft // 2, mode="reflect")
    assert abs(spectral / (0.75 * np.sum(padded**2)) - 1.0) < 0.01


def test_linearity():
    a, b = _wave(2000, 1), _wave(2000, 2)
    sa, sb = stft(a, TOY).bins, stft(b, TOY).bins
    sab = stft(Waveform(2.0 * a.samples - 0.5 * b.samples, 16000), TOY).bins
    assert np.allclose(sab, 2.0 * sa - 0.5 * sb, atol=1e-9)


def test_magnitude():
    spec = stft(_wave(1000), TOY)
    assert np.allclose(magnitude(spec), np.abs(spec.bins))


def test_cached_window_is_read_only():
    """window_array() hands out the one cached window of its n_fft: writing
    to it raises, so no caller can change the stft of every other."""
    x = _wave(1000, seed=2)
    before = stft(x, TOY).bins
    window = TOY.window_array()
    with pytest.raises(ValueError, match="read-only"):
        window *= 2
    assert np.array_equal(stft(x, TOY).bins, before)


def test_empty_input_rejected():
    with pytest.raises(ShapeError, match="cannot transform an empty waveform"):
        stft(Waveform(np.zeros(0), 16000), TOY)


def test_non_invertible_hop():
    """With hop == n_fft the Hann window zeroes out the frame boundaries,
    so the overlap sum dips below the COLA floor."""
    spec = ComplexSpectrogram(
        np.ones((129, 8), dtype=np.complex128), StftParams(n_fft=256, hop=256)
    )
    with pytest.raises(ConfigError, match="window/hop pair fails COLA"):
        istft(spec, 1500, 16000)


def test_default_params():
    p = ModelConfig().stft_params
    assert (p.n_fft, p.hop, p.n_bins) == (4096, 2048, 2049)
