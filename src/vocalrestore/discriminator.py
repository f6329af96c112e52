"""Forward-only multi-branch discriminator with spectral normalization.

Branches: multi-period (waveform folded to period-major (p, n/p) grids, so
each of the p phase rows is convolved along time) and
multi-resolution STFT (magnitude spectrograms, strided 2-D convs). Every conv
weight is divided by its largest singular value, estimated by power iteration
with persisted left vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import ConfigError, ShapeError
from .spectral import StftParams, magnitude, stft

LEAKY_SLOPE = 0.1
SIGMA_FLOOR = 1e-12
POWER_ITERS = 1
# (kernel, stride) of every conv but the final projection, per branch kind.
# Period grids are period-major (p, n/p): time is the last axis of every conv
# output, so the patch gathers copy long rows.
PERIOD_CONV = ((1, 5), (1, 3))
STFT_CONV = ((3, 3), (2, 2))


@dataclass(frozen=True)
class DiscriminatorConfig:
    periods: tuple = (2, 3, 5, 7, 11)
    stft_resolutions: tuple = ((2048, 512), (1024, 256), (512, 128))
    channels: tuple = (8, 16, 32)

    def __post_init__(self):
        if len(set(self.periods)) != len(self.periods) or any(
            p < 2 for p in self.periods
        ):
            raise ConfigError("periods must be distinct integers >= 2")
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


def spectral_normalize(weight: np.ndarray, state: SpectralNormState, name: str) -> np.ndarray:
    """Divide a matrix by its largest singular value, estimated by POWER_ITERS
    power iterations warm-started from the vector `state` holds for `name`.

    Higher-rank tensors are normalized via their (out_channels, -1) matricization.
    """
    mat = weight.reshape(weight.shape[0], -1)
    u = state.vectors.get(name)
    if u is None:
        # Fixed start keeps the estimate deterministic.
        u = np.full(mat.shape[0], 1.0 / np.sqrt(mat.shape[0]))
    for _ in range(POWER_ITERS):
        v = mat.T @ u
        v /= max(np.linalg.norm(v), SIGMA_FLOOR)
        u = mat @ v
        u /= max(np.linalg.norm(u), SIGMA_FLOOR)
    state.vectors[name] = u
    sigma = float(u @ mat @ v)
    return weight / max(sigma, SIGMA_FLOOR)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """max(x, slope*x), written into x (a fresh conv output)."""
    return np.maximum(x, LEAKY_SLOPE * x, out=x)


def _conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: tuple) -> np.ndarray:
    """Valid-mode strided 2-D convolution. x: (C_in, H, W); kernel:
    (C_out, C_in, kh, kw). One GEMM over the patch-major (C_in*kh*kw, Ho*Wo)
    patch matrix, so the kernel needs no transposed operand."""
    c_in, H, W = x.shape
    c_out, _, kh, kw = kernel.shape
    sh, sw = stride
    if H < kh or W < kw:
        raise ShapeError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    view = view[:, ::sh, ::sw]                       # (C_in, Ho, Wo, kh, kw)
    _, Ho, Wo, _, _ = view.shape
    cols = view.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, Ho * Wo)
    out = (kernel.reshape(c_out, -1) @ cols).reshape(c_out, Ho, Wo)
    out += bias[:, None, None]
    return out


def _layer_table(config: DiscriminatorConfig, kernel: tuple) -> list:
    """(layer name, weight shape) per conv of one branch, in weight-draw
    order. The last entry is the final projection: stride 1, no activation."""
    widths = (1,) + tuple(config.channels) + (1,)
    names = [f"layer{i}" for i in range(len(config.channels))] + ["final"]
    return [(name, (widths[k + 1], widths[k]) + kernel) for k, name in enumerate(names)]


def init_discriminator_weights(config: DiscriminatorConfig, seed: int) -> dict:
    """Seeded uniform +-sqrt(1/fan_in) conv weights, zero biases."""
    rng = np.random.Generator(np.random.Philox(seed))
    branches = [(f"period{p}", PERIOD_CONV) for p in config.periods] + [
        (f"stft{n_fft}_{hop}", STFT_CONV) for n_fft, hop in config.stft_resolutions
    ]
    store: dict[str, np.ndarray] = {}
    for branch, (kernel, _) in branches:
        for name, shape in _layer_table(config, kernel):
            bound = np.sqrt(1.0 / np.prod(shape[1:]))
            store[f"{branch}.{name}.weight"] = rng.uniform(
                -bound, bound, shape
            ).astype(np.float32)
            store[f"{branch}.{name}.bias"] = np.zeros(shape[0], dtype=np.float32)
    return store


def _run_stack(x, branch, conv, weights, config, state) -> BranchOutput:
    kernel, stride = conv
    layers = _layer_table(config, kernel)
    last = len(layers) - 1
    feats = []
    for i, (name, _) in enumerate(layers):
        key = f"{branch}.{name}"
        # Positional: a tracing wrapper installed on this name keeps `name` for itself.
        w = spectral_normalize(
            weights[f"{key}.weight"].astype(np.float64), state, f"{key}.weight"
        )
        x = _conv2d(x, w, weights[f"{key}.bias"], stride if i < last else (1, 1))
        if i < last:
            x = leaky_relu(x)
        feats.append(x)
    return BranchOutput(float(x.mean()), feats)


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
    largest = max(max(config.periods) * PERIOD_CONV[0][1],
                  max(n for n, _ in config.stft_resolutions))
    if len(x) < largest:
        raise ShapeError(
            f"need at least {largest} samples, got {len(x)}"
        )

    outputs = []
    for p in config.periods:
        n = (len(x) // p) * p
        grid = x[:n].reshape(-1, p).T[None]          # (1, p, n/p)
        outputs.append(_run_stack(grid, f"period{p}", PERIOD_CONV, weights, config, state))

    for n_fft, hop in config.stft_resolutions:
        spec = stft(wave, StftParams(n_fft=n_fft, hop=hop))
        grid = magnitude(spec)[None]
        outputs.append(
            _run_stack(grid, f"stft{n_fft}_{hop}", STFT_CONV, weights, config, state)
        )
    return outputs
