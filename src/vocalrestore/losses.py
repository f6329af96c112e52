"""Training objectives as pure metric computations.

All L1-style terms are means over elements (not sums), so the default
lambda weights are length-invariant. Nothing here backpropagates.

The phase-aware term is a three-part anti-wrapped construction
(instantaneous phase, group delay, instantaneous frequency); it follows the
published idea of phase-aware optimization but is NOT numerically equivalent
to any specific external implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import ConfigError, LengthMismatchError, SampleRateError, ShapeError
from .spectral import SPEC_RESOLUTIONS, ComplexSpectrogram, magnitude, stft

FM_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    lambda_wav: float = 1.0
    lambda_spec: float = 1.0
    lambda_omni: float = 1.0
    lambda_adv: float = 0.1
    lambda_fm: float = 2.0

    def __post_init__(self):
        for name in ("lambda_wav", "lambda_spec", "lambda_omni", "lambda_adv", "lambda_fm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


@dataclass
class LossReport:
    wav: float = 0.0
    spec: float = 0.0
    omni: float = 0.0
    recon: float = 0.0
    d_loss: float = 0.0
    adv: float = 0.0
    fm: float = 0.0
    g_total: float = 0.0


def _check_pair(est: Waveform, ref: Waveform) -> None:
    """The two waveforms of a waveform-domain loss share a rate and a length."""
    if est.sample_rate != ref.sample_rate:
        raise SampleRateError(f"sample rates differ: {est.sample_rate} vs {ref.sample_rate} Hz")
    if len(est) != len(ref):
        raise LengthMismatchError(f"lengths differ: {len(est)} vs {len(ref)}")


def wav_l1(est: Waveform, ref: Waveform) -> float:
    """Mean absolute sample difference."""
    _check_pair(est, ref)
    return float(np.mean(np.abs(est.samples - ref.samples)))


def multi_res_spec_l1(est: Waveform, ref: Waveform) -> float:
    """Mean over SPEC_RESOLUTIONS of the mean absolute magnitude difference."""
    _check_pair(est, ref)
    terms = []
    for params in SPEC_RESOLUTIONS:
        m_est = magnitude(stft(est, params))
        m_ref = magnitude(stft(ref, params))
        terms.append(np.mean(np.abs(m_est - m_ref)))
    return float(np.mean(terms))


def _antiwrap(delta: np.ndarray) -> np.ndarray:
    """Distance |d - 2*pi*round(d / 2*pi)|, zero at every multiple of 2*pi."""
    two_pi = 2.0 * np.pi
    return np.abs(delta - two_pi * np.round(delta / two_pi))


def _weighted_mean(values: np.ndarray, raw_weights: np.ndarray) -> float:
    mean_w = np.mean(raw_weights)
    if mean_w <= 0:
        return float(np.mean(values))
    return float(np.mean(values * (raw_weights / mean_w)))


def omni_phase_loss(est: ComplexSpectrogram, ref: ComplexSpectrogram) -> float:
    """Phase-aware loss: anti-wrapped instantaneous phase, group delay
    (frequency difference of phase), and instantaneous frequency (time
    difference of phase), each magnitude-weighted by |ref| normalized to
    mean 1."""
    if est.bins.shape != ref.bins.shape:
        raise ShapeError(
            f"shape mismatch: {est.bins.shape} vs {ref.bins.shape}"
        )
    phase_est = np.angle(est.bins)
    phase_ref = np.angle(ref.bins)
    w = magnitude(ref)

    ip = _weighted_mean(_antiwrap(phase_est - phase_ref), w)

    total = ip
    if est.bins.shape[0] > 1:
        gd = _antiwrap(np.diff(phase_est, axis=0) - np.diff(phase_ref, axis=0))
        total += _weighted_mean(gd, w[:-1, :])
    if est.bins.shape[1] > 1:
        iaf = _antiwrap(np.diff(phase_est, axis=1) - np.diff(phase_ref, axis=1))
        total += _weighted_mean(iaf, w[:, :-1])
    return float(total)


def _branch_means(scores) -> np.ndarray:
    return np.asarray([np.mean(s) for s in scores], dtype=np.float64)


def hinge_d_loss(real_scores, fake_scores) -> float:
    """(1/K) sum_k E[max(0, 1 - D(y))] + E[max(0, 1 + D(y_hat))]."""
    if len(real_scores) != len(fake_scores) or len(real_scores) < 1:
        raise ShapeError(
            f"branch counts differ: {len(real_scores)} vs {len(fake_scores)}"
        )
    total = 0.0
    for r, f in zip(real_scores, fake_scores):
        total += float(np.mean(np.maximum(0.0, 1.0 - np.asarray(r, dtype=np.float64))))
        total += float(np.mean(np.maximum(0.0, 1.0 + np.asarray(f, dtype=np.float64))))
    return total / len(real_scores)


def adv_loss(fake_scores) -> float:
    """-(1/K) sum_k E[D(y_hat)]."""
    if len(fake_scores) < 1:
        raise ShapeError("need at least one branch")
    return float(-np.mean(_branch_means(fake_scores)))


def feature_matching(real_feats, fake_feats) -> float:
    """Normalized feature matching: per layer,
    mean|phi(y) - phi(y_hat)| / (mean|phi(y)| + eps), averaged over layers
    then branches. Features are taken in their own dtype (the discriminator's
    are float32 with stored weights) and both means accumulate in float64."""
    if len(real_feats) != len(fake_feats) or len(real_feats) < 1:
        raise ShapeError(
            f"branch counts differ: {len(real_feats)} vs {len(fake_feats)}"
        )
    branch_terms = []
    for k, (rf, ff) in enumerate(zip(real_feats, fake_feats)):
        if len(rf) != len(ff) or len(rf) < 1:
            raise ShapeError(f"branch {k}: layer counts differ or empty")
        layer_terms = []
        for ell, (r, f) in enumerate(zip(rf, ff)):
            r = np.asarray(r)
            f = np.asarray(f)
            if r.shape != f.shape:
                raise ShapeError(
                    f"branch {k} layer {ell}: shapes {r.shape} vs {f.shape}"
                )
            layer_terms.append(
                np.mean(np.abs(r - f), dtype=np.float64)
                / (np.mean(np.abs(r), dtype=np.float64) + FM_EPS)
            )
        branch_terms.append(np.mean(layer_terms))
    return float(np.mean(branch_terms))


def _recon(report: LossReport, weights: LossWeights) -> float:
    return (weights.lambda_wav * report.wav + weights.lambda_spec * report.spec
            + weights.lambda_omni * report.omni)


def reconstruction_loss(
    est: Waveform, ref: Waveform, est_spec: ComplexSpectrogram, ref_spec: ComplexSpectrogram
) -> LossReport:
    """Composite reconstruction loss at the default LossWeights; the omni
    term reads the two spectrograms."""
    report = LossReport()
    report.wav = wav_l1(est, ref)
    report.spec = multi_res_spec_l1(est, ref)
    report.omni = omni_phase_loss(est_spec, ref_spec)
    report.recon = _recon(report, LossWeights())
    return report


def generator_total(report: LossReport, weights: LossWeights) -> float:
    """L_G = L_recon + lambda_adv * L_adv + lambda_fm * L_fm, with L_recon
    recomputed from the report's terms at these weights; writes both to the
    report."""
    report.recon = _recon(report, weights)
    total = report.recon + weights.lambda_adv * report.adv + weights.lambda_fm * report.fm
    report.g_total = float(total)
    return report.g_total

