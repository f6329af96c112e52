"""Forward-only multi-branch discriminator with spectral normalization.

Branches: multi-period (waveform folded to 2-D grids, strided 2-D convs) and
multi-resolution STFT (magnitude spectrograms, strided 2-D convs). Every conv
weight is divided by its largest singular value, estimated by power iteration
with persisted left vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import InputTooShortError, ShapeError
from .spectral import StftParams, magnitude, stft

LEAKY_SLOPE = 0.1
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class DiscriminatorConfig:
    periods: tuple = (2, 3, 5, 7, 11)
    stft_resolutions: tuple = ((2048, 512), (1024, 256), (512, 128))
    channels: tuple = (8, 16, 32)
    period_kernel: tuple = (5, 1)
    period_stride: tuple = (3, 1)
    stft_kernel: tuple = (3, 3)
    stft_stride: tuple = (2, 2)
    power_iters: int = 1

    def __post_init__(self):
        if len(set(self.periods)) != len(self.periods) or any(
            p < 2 for p in self.periods
        ):
            raise ShapeError("periods must be distinct integers >= 2")
        for n_fft, hop in self.stft_resolutions:
            StftParams(n_fft=n_fft, hop=hop)

    @property
    def branch_count(self) -> int:
        return len(self.periods) + len(self.stft_resolutions)


@dataclass
class BranchOutput:
    score: float
    features: list


class SpectralNormState:
    """Persisted power-iteration vectors, keyed by parameter name.

    Forward passes mutate this state; concurrent callers must clone it or
    serialize access.
    """

    def __init__(self):
        self.vectors: dict[str, np.ndarray] = {}

    def clone(self) -> "SpectralNormState":
        out = SpectralNormState()
        out.vectors = {k: v.copy() for k, v in self.vectors.items()}
        return out


def spectral_normalize(
    weight: np.ndarray, iters: int = 1, state: SpectralNormState | None = None,
    name: str = "w",
) -> np.ndarray:
    """Divide a matrix by its largest singular value (power-iteration estimate).

    Higher-rank tensors are normalized via their (out_channels, -1) matricization.
    """
    if iters < 1:
        raise ShapeError("power iteration needs iters >= 1")
    mat = weight.reshape(weight.shape[0], -1)
    if state is not None and name in state.vectors:
        u = state.vectors[name]
    else:
        # Fixed start keeps the estimate deterministic.
        u = np.full(mat.shape[0], 1.0 / np.sqrt(mat.shape[0]))
    for _ in range(iters):
        v = mat.T @ u
        v /= max(np.linalg.norm(v), SIGMA_FLOOR)
        u = mat @ v
        u /= max(np.linalg.norm(u), SIGMA_FLOOR)
    if state is not None:
        state.vectors[name] = u
    sigma = float(u @ mat @ v)
    return weight / max(sigma, SIGMA_FLOOR)


def leaky_relu(x: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def _conv2d(x: np.ndarray, kernel: np.ndarray, bias, stride: tuple) -> np.ndarray:
    """Valid-mode strided 2-D convolution. x: (C_in, H, W); kernel:
    (C_out, C_in, kh, kw)."""
    c_in, H, W = x.shape
    c_out, _, kh, kw = kernel.shape
    sh, sw = stride
    if H < kh or W < kw:
        raise InputTooShortError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    view = view[:, ::sh, ::sw]                       # (C_in, Ho, Wo, kh, kw)
    out = np.einsum("chwij,ocij->ohw", view, kernel, optimize=True)
    if bias is not None:
        out += bias[:, None, None]
    return out


def init_discriminator_weights(config: DiscriminatorConfig, seed: int) -> dict:
    """Seeded uniform +-sqrt(1/fan_in) conv weights, zero biases."""
    rng = np.random.Generator(np.random.Philox(seed))
    store: dict[str, np.ndarray] = {}

    def add_stack(branch: str, c_in0: int, kernel: tuple):
        kh, kw = kernel
        c_in = c_in0
        for i, c_out in enumerate(config.channels):
            shape = (c_out, c_in, kh, kw)
            bound = np.sqrt(1.0 / (c_in * kh * kw))
            store[f"{branch}.layer{i}.weight"] = rng.uniform(
                -bound, bound, shape
            ).astype(np.float32)
            store[f"{branch}.layer{i}.bias"] = np.zeros(c_out, dtype=np.float32)
            c_in = c_out
        bound = np.sqrt(1.0 / (c_in * kh * kw))
        store[f"{branch}.final.weight"] = rng.uniform(
            -bound, bound, (1, c_in, kh, kw)
        ).astype(np.float32)
        store[f"{branch}.final.bias"] = np.zeros(1, dtype=np.float32)

    for p in config.periods:
        add_stack(f"period{p}", 1, config.period_kernel)
    for n_fft, hop in config.stft_resolutions:
        add_stack(f"stft{n_fft}_{hop}", 1, config.stft_kernel)
    return store


def _run_stack(x, branch, weights, config, stride, state):
    feats = []
    n = len(config.channels)
    for i in range(n):
        w = spectral_normalize(
            weights[f"{branch}.layer{i}.weight"].astype(np.float64),
            config.power_iters, state, f"{branch}.layer{i}.weight",
        )
        x = leaky_relu(_conv2d(x, w, weights[f"{branch}.layer{i}.bias"], stride))
        feats.append(x)
    w = spectral_normalize(
        weights[f"{branch}.final.weight"].astype(np.float64),
        config.power_iters, state, f"{branch}.final.weight",
    )
    x = _conv2d(x, w, weights[f"{branch}.final.bias"], (1, 1))
    feats.append(x)
    return float(x.mean()), feats


def discriminator_forward(
    wave: Waveform,
    weights: dict,
    config: DiscriminatorConfig,
    state: SpectralNormState | None = None,
) -> list[BranchOutput]:
    """One BranchOutput (scalar score + per-layer feature maps) per branch."""
    if state is None:
        state = SpectralNormState()
    x = np.asarray(wave.samples, dtype=np.float64)
    largest = max(max(config.periods) * config.period_kernel[0],
                  max(n for n, _ in config.stft_resolutions))
    if len(x) < largest:
        raise InputTooShortError(
            f"need at least {largest} samples, got {len(x)}"
        )

    outputs = []
    for p in config.periods:
        n = (len(x) // p) * p
        grid = x[:n].reshape(-1, p)[None]            # (1, n/p, p)
        score, feats = _run_stack(
            grid, f"period{p}", weights, config, config.period_stride, state
        )
        outputs.append(BranchOutput(score, feats))

    for n_fft, hop in config.stft_resolutions:
        spec = stft(wave, StftParams(n_fft=n_fft, hop=hop))
        grid = magnitude(spec)[None]
        score, feats = _run_stack(
            grid, f"stft{n_fft}_{hop}", weights, config, config.stft_stride, state
        )
        outputs.append(BranchOutput(score, feats))
    return outputs
