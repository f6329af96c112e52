import numpy as np
import pytest

from vocalrestore.audio_io import Waveform
from vocalrestore.errors import ConfigError, LengthMismatchError, ShapeError
from vocalrestore.losses import (
    FM_EPS,
    LossReport,
    LossWeights,
    adv_loss,
    feature_matching,
    generator_total,
    hinge_d_loss,
    multi_res_spec_l1,
    omni_phase_loss,
    reconstruction_loss,
    wav_l1,
)
from vocalrestore.spectral import SPEC_RESOLUTIONS, StftParams, stft

from oracles import naive_dft_fast


def _wave(n, seed=0, sr=48000, amp=1.0):
    return Waveform(amp * np.random.default_rng(seed).standard_normal(n), sr)


def test_default_weights():
    w = LossWeights()
    assert (w.lambda_wav, w.lambda_spec, w.lambda_omni) == (1.0, 1.0, 1.0)
    assert (w.lambda_adv, w.lambda_fm) == (0.1, 2.0)
    assert tuple((p.n_fft, p.hop) for p in SPEC_RESOLUTIONS) == (
        (2048, 512), (1024, 256), (512, 128),
    )
    with pytest.raises(ConfigError, match="lambda_adv must be nonnegative"):
        LossWeights(lambda_adv=-0.5)


def test_wav_l1_basics():
    a = Waveform(np.array([0.0, 1.0, -1.0, 2.0]), 48000)
    b = Waveform(np.array([0.0, 0.0, 0.0, 0.0]), 48000)
    assert wav_l1(a, b) == 1.0
    assert wav_l1(a, a) == 0.0
    with pytest.raises(LengthMismatchError):
        wav_l1(a, Waveform(np.zeros(5), 48000))


def test_wav_l1_gaussian_expectation():
    """For zero-mean Gaussian differences with std sigma, E|d| = sigma *
    sqrt(2/pi); a Monte-Carlo check that the term is a mean, not a sum."""
    sigma = 0.37
    a = _wave(200000, seed=1, amp=sigma)
    b = Waveform(np.zeros(200000), 48000)
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert abs(wav_l1(a, b) / expected - 1.0) < 0.05


def test_spec_l1_two_frame_oracle():
    """Magnitude L1 recomputed via a naive DFT at each of the three
    resolutions (window/hop 2048/512, 1024/256, 512/128), then averaged."""
    n = 2048
    a, b = _wave(n, seed=2), _wave(n, seed=3)

    def mags(w, n_fft, hop):
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
        padded = np.pad(w.samples, n_fft // 2, mode="reflect")
        cols = []
        for t in range(1 + n // hop):
            frame = padded[t * hop : t * hop + n_fft] * window
            cols.append(np.abs(naive_dft_fast(frame)))
        return np.stack(cols, axis=1)

    ref = np.mean([np.mean(np.abs(mags(a, n_fft, hop) - mags(b, n_fft, hop)))
                   for n_fft, hop in ((2048, 512), (1024, 256), (512, 128))])
    got = multi_res_spec_l1(a, b)
    assert abs(got - ref) < 1e-9


def test_spec_l1_zero_and_scale():
    a = _wave(4096, seed=4)
    assert multi_res_spec_l1(a, a) == 0.0
    b = Waveform(np.zeros(4096), 48000)
    # against silence the loss is the mean reference magnitude: linear in scale
    one = multi_res_spec_l1(a, b)
    two = multi_res_spec_l1(Waveform(2 * a.samples, 48000), b)
    assert abs(two / one - 2.0) < 1e-9


def test_omni_zero_for_identical_phase():
    spec = stft(_wave(2000, seed=5), StftParams(n_fft=256, hop=128))
    assert omni_phase_loss(spec, spec) == 0.0


def test_omni_antiwrap_invariance():
    """Adding 2*pi to every phase leaves all three terms unchanged."""
    spec = stft(_wave(2000, seed=6), StftParams(n_fft=256, hop=128))
    shifted = type(spec)(spec.bins * np.exp(2j * np.pi), spec.params)
    base = omni_phase_loss(spec, spec)
    assert abs(omni_phase_loss(shifted, spec) - base) < 1e-9


def test_omni_constant_offset():
    """A constant phase offset theta contributes theta to the IP term and
    nothing to the difference terms."""
    spec = stft(_wave(2000, seed=7), StftParams(n_fft=256, hop=128))
    theta = 0.5
    rotated = type(spec)(spec.bins * np.exp(1j * theta), spec.params)
    assert abs(omni_phase_loss(rotated, spec) - theta) < 1e-9


def test_omni_shape_mismatch():
    a = stft(_wave(2000), StftParams(n_fft=256, hop=128))
    b = stft(_wave(2500), StftParams(n_fft=256, hop=128))
    with pytest.raises(ShapeError):
        omni_phase_loss(a, b)


def test_hinge_d_loss_table():
    """Hand-computed hinge values."""
    # one branch: real score 0.5 -> 0.5; fake score -0.2 -> 0.8
    assert abs(hinge_d_loss([0.5], [-0.2]) - 1.3) < 1e-12
    # saturated discriminator: real >= 1 and fake <= -1 give zero loss
    assert hinge_d_loss([2.0, 1.0], [-1.0, -3.0]) == 0.0
    # chance-level scores (all zero) give 1 + 1 = 2 per branch
    assert hinge_d_loss([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 2.0
    with pytest.raises(ShapeError, match="branch counts differ: 1 vs 2"):
        hinge_d_loss([0.0], [0.0, 0.0])


def test_adv_loss_table():
    assert adv_loss([1.0]) == -1.0
    assert adv_loss([1.0, -3.0]) == 1.0
    with pytest.raises(ShapeError, match="need at least one branch"):
        adv_loss([])


@pytest.mark.parametrize("c", [0.1, 10.0])
def test_feature_matching_scale_invariance(c):
    """Scaling both feature sets by c leaves the normalized FM loss nearly
    unchanged (exactly, up to the eps regularizer)."""
    rng = np.random.default_rng(8)
    real = [[rng.standard_normal((3, 5)) for _ in range(4)] for _ in range(2)]
    fake = [[r + 0.1 * rng.standard_normal(r.shape) for r in b] for b in real]
    base = feature_matching(real, fake)
    scaled = feature_matching(
        [[c * r for r in b] for b in real], [[c * f for f in b] for b in fake]
    )
    assert abs(scaled / base - 1.0) < 1e-6


def test_feature_matching_zero_and_errors():
    real = [[np.ones((2, 2))]]
    assert feature_matching(real, real) == 0.0
    with pytest.raises(ShapeError, match="branch counts differ: 1 vs 0"):
        feature_matching(real, [])
    with pytest.raises(ShapeError, match="branch 0: layer counts differ or empty"):
        feature_matching(real, [[np.ones((2, 2)), np.ones(3)]])
    with pytest.raises(ShapeError, match=r"branch 0 layer 0: shapes \(2, 2\) vs \(3, 2\)"):
        feature_matching(real, [[np.ones((3, 2))]])


def test_feature_matching_value():
    real = [[np.full((2, 2), 2.0)]]
    fake = [[np.full((2, 2), 1.5)]]
    # mean|r - f| / mean|r| = 0.5 / 2
    assert abs(feature_matching(real, fake) - 0.25) < 1e-7


def test_feature_matching_matches_plain_formula():
    """mean|r - f| / (mean|r| + eps) per layer, averaged over layers then
    branches; the inputs are left unchanged."""
    rng = np.random.default_rng(21)
    shapes = [[(4, 3, 50), (8, 3, 17), (1, 3, 15)], [(4, 20, 9), (1, 18, 7)]]
    real = [[rng.standard_normal(s) for s in branch] for branch in shapes]
    fake = [[r + 0.3 * rng.standard_normal(r.shape) for r in b] for b in real]
    copies = [[r.copy() for r in b] for b in real + fake]
    want = np.mean([
        np.mean([np.mean(np.abs(r - f)) / (np.mean(np.abs(r)) + FM_EPS)
                 for r, f in zip(rb, fb)])
        for rb, fb in zip(real, fake)
    ])
    assert abs(feature_matching(real, fake) - want) < 1e-12
    assert all(np.array_equal(a, b) for ab, bb in zip(real + fake, copies) for a, b in zip(ab, bb))
    # 0-d feature "maps" are valid matching shapes too.
    assert abs(feature_matching([[1.0]], [[0.5]]) - 0.5 / (1.0 + FM_EPS)) < 1e-12


# Largest deviation of float32 features from their float64 copies over
# seeds 1-10 of this test's draw: 2.5e-10 relative. The bound is four times that.
FM_RTOL_F32 = 1e-9


@pytest.mark.parametrize("seed", [2, 6])
def test_feature_matching_float32_features_match_float64(seed):
    """float32 features (the discriminator's, with stored weights) give the
    value of their float64 copies: both means accumulate in float64."""
    rng = np.random.default_rng(seed)
    shapes = [[(8, 2, 2000), (16, 2, 660), (32, 2, 218), (1, 2, 214)],
              [(8, 512, 30), (16, 255, 14), (32, 127, 6), (1, 125, 4)]]
    real = [[rng.standard_normal(s).astype(np.float32) for s in b] for b in shapes]
    fake = [[r + np.float32(0.3) * rng.standard_normal(r.shape).astype(np.float32)
             for r in b] for b in real]
    want = feature_matching([[f.astype(np.float64) for f in b] for b in real],
                            [[f.astype(np.float64) for f in b] for b in fake])
    assert abs(feature_matching(real, fake) / want - 1.0) < FM_RTOL_F32


def test_reconstruction_and_generator_total():
    est, ref = _wave(4096, seed=9, amp=0.1), _wave(4096, seed=10, amp=0.1)
    p = StftParams(n_fft=256, hop=128)
    report = reconstruction_loss(est, ref, stft(est, p), stft(ref, p))
    assert report.recon == pytest.approx(report.wav + report.spec + report.omni)

    report.adv = 0.3
    report.fm = 0.7
    total = generator_total(report, LossWeights())
    assert total == pytest.approx(report.recon + 0.1 * 0.3 + 2.0 * 0.7)
    assert report.g_total == total


def test_generator_total_uses_given_recon_weights():
    """L_recon comes from the given lambdas, not from the recon the report
    holds: zeroed, L_G is the adversarial and feature-matching part alone."""
    report = LossReport(wav=0.2, spec=0.5, omni=0.4, recon=1.1, adv=0.3, fm=0.7)
    total = generator_total(report, LossWeights(lambda_wav=0, lambda_spec=0, lambda_omni=0))
    assert total == 0.1 * 0.3 + 2.0 * 0.7
    assert report.recon == 0.0

