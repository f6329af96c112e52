"""Forward-only multi-branch discriminator with spectral normalization.

Branches: multi-period (waveform folded to period-major (p, n/p) grids, so
each of the p phase rows is convolved along time) and multi-resolution STFT
(magnitude spectrograms on the spectral loss's grids, strided 2-D convs).
The branches are fixed, and DiscriminatorConfig.branches lists them once.
Every conv weight is divided by its largest singular value, estimated by
power iteration with persisted left vectors.

A branch runs in the dtype of the weights it is given (float32 as stored):
its grid is cast once where it enters the stack, so the patch matrices, the
GEMMs and the feature maps take that dtype. The STFT grids are computed in
float64, the power iteration and sigma stay float64, and each score is a
float64 mean. float64 weights give the float64 reference forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .audio_io import Waveform
from .errors import ShapeError
from .spectral import SPEC_RESOLUTIONS, StftParams, magnitude, stft

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
    """The one discriminator: HiFi-GAN's periods and the spectral loss's
    STFT grids. It has no fields; its functions take it as their config."""

    periods: ClassVar[tuple] = (2, 3, 5, 7, 11)
    stft_resolutions: ClassVar[tuple] = SPEC_RESOLUTIONS
    channels: ClassVar[tuple] = (8, 16, 32)
    # (name, conv, period p or STFT grid of the input) per branch, in
    # weight-draw and output order.
    branches: ClassVar[tuple] = tuple(
        [(f"period{p}", PERIOD_CONV, p) for p in periods]
        + [(f"stft{s.n_fft}_{s.hop}", STFT_CONV, s) for s in stft_resolutions]
    )


def _min_samples(conv: tuple, source) -> int:
    """Fewest samples one branch runs on (15360 for the 2048/512 grid's 31
    frames). Walked back from the final projection's kernel through the
    strided layers, its grid needs `cols` columns: a period-p fold has
    n // p of them, an STFT grid 1 + n // hop. The heights (p rows,
    n_fft/2 + 1 bins) meet every kernel's."""
    (_, kw), (_, sw) = conv
    cols = kw
    for _ in DiscriminatorConfig.channels:
        cols = (cols - 1) * sw + kw
    if isinstance(source, StftParams):
        return (cols - 1) * source.hop
    return cols * source


MIN_SAMPLES = max(_min_samples(conv, source) for _, conv, source in DiscriminatorConfig.branches)


@dataclass
class BranchOutput:
    score: float
    features: list


class SpectralNormState:
    """Persisted power-iteration vectors, keyed by parameter name.

    Forward passes mutate this state; concurrent callers must each hold
    their own or serialize access.
    """

    def __init__(self):
        self.vectors: dict[str, np.ndarray] = {}


def spectral_normalize(weight: np.ndarray, state: SpectralNormState, name: str) -> np.ndarray:
    """Divide a matrix by its largest singular value, estimated by POWER_ITERS
    power iterations warm-started from the vector `state` holds for `name`.

    Higher-rank tensors are normalized via their (out_channels, -1) matricization.
    The persisted vectors are float64, so the iteration and sigma are float64;
    the normalized kernel keeps the weight's dtype.
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


def _layer_table(kernel: tuple) -> list:
    """(layer name, weight shape) per conv of one branch, in weight-draw
    order. The last entry is the final projection: stride 1, no activation."""
    widths = (1, *DiscriminatorConfig.channels, 1)
    names = [f"layer{i}" for i in range(len(widths) - 2)] + ["final"]
    return [(name, (widths[k + 1], widths[k]) + kernel) for k, name in enumerate(names)]


def init_discriminator_weights(config: DiscriminatorConfig, seed: int) -> dict:
    """Seeded uniform +-sqrt(1/fan_in) conv weights, zero biases."""
    rng = np.random.Generator(np.random.Philox(seed))
    store: dict[str, np.ndarray] = {}
    for branch, (kernel, _), _ in config.branches:
        for name, shape in _layer_table(kernel):
            bound = np.sqrt(1.0 / np.prod(shape[1:]))
            store[f"{branch}.{name}.weight"] = rng.uniform(
                -bound, bound, shape
            ).astype(np.float32)
            store[f"{branch}.{name}.bias"] = np.zeros(shape[0], dtype=np.float32)
    return store


def _grid(wave: Waveform, source) -> np.ndarray:
    """A branch's (1, H, W) input: the magnitude spectrogram on an STFT grid,
    or the period-major (p, n/p) fold of the samples for a period p."""
    if isinstance(source, StftParams):
        return magnitude(stft(wave, source))[None]
    n = (len(wave) // source) * source
    return wave.samples[:n].reshape(-1, source).T[None]


def _run_stack(x, branch, conv, weights, state) -> BranchOutput:
    kernel, stride = conv
    layers = _layer_table(kernel)
    last = len(layers) - 1
    x = x.astype(weights[f"{branch}.{layers[0][0]}.weight"].dtype, copy=False)
    feats = []
    for i, (name, _) in enumerate(layers):
        key = f"{branch}.{name}"
        # Positional: a tracing wrapper installed on this name keeps `name` for itself.
        w = spectral_normalize(weights[f"{key}.weight"], state, f"{key}.weight")
        x = _conv2d(x, w, weights[f"{key}.bias"], stride if i < last else (1, 1))
        if i < last:
            x = leaky_relu(x)
        feats.append(x)
    return BranchOutput(float(x.mean(dtype=np.float64)), feats)


def discriminator_forward(
    wave: Waveform,
    weights: dict,
    config: DiscriminatorConfig,
    state: SpectralNormState | None = None,
) -> list[BranchOutput]:
    """One BranchOutput (scalar score + per-layer feature maps) per branch."""
    if state is None:
        state = SpectralNormState()
    if len(wave) < MIN_SAMPLES:
        raise ShapeError(f"need at least {MIN_SAMPLES} samples, got {len(wave)}")
    return [_run_stack(_grid(wave, source), branch, conv, weights, state)
            for branch, conv, source in config.branches]
