"""Deterministic neural kernels of the generator forward path.

The convolution, normalization and gating kernels are channel-first: they
take (C, ..., T) arrays and act on axis 0 (channels) and the last axis
(time). rope and attention_core take (..., sequence, features). All are pure
functions; compute dtype follows the input dtype (RoPE's tables and the
attention scale included), so callers choose precision. No autodiff, no
dropout, no state.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

RMSNORM_DELTA = 1e-6
ROPE_BASE = 10000.0


def silu(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    s *= x
    return s


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip + exp on one buffer, in place: scipy.special.expit is slower at the
    # generator's frame counts. The clip keeps exp finite for large |x|.
    s = np.clip(x, -60.0, 60.0)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x^2) + delta) * gain, normalized over the channel axis 0."""
    gain = np.asarray(gain)
    if x.shape[0] != gain.shape[0]:
        raise ShapeError(
            f"gain length {gain.shape[0]} != feature dim {x.shape[0]}"
        )
    ms = np.mean(np.square(x), axis=0, keepdims=True)
    return x / np.sqrt(ms + RMSNORM_DELTA) * gain.reshape((-1,) + (1,) * (x.ndim - 1))


def pointwise_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution as one GEMM: per-position affine map
    (C_in, ..., T) -> (C_out, ..., T)."""
    if x.shape[0] != weights.shape[1]:
        raise ShapeError(
            f"input channels {x.shape[0]} != weight columns {weights.shape[1]}"
        )
    out = (weights @ x.reshape(x.shape[0], -1)).reshape((weights.shape[0],) + x.shape[1:])
    out += np.asarray(bias).reshape((-1,) + (1,) * (x.ndim - 1))
    return out


def depthwise_conv1d(x: np.ndarray, kernels: np.ndarray, dilation: int) -> np.ndarray:
    """Per-channel dilated correlation along time, same-length output via
    zero padding.

    x: (C, ..., T); kernels: (C, k) with k odd, shared over the middle axes.
    """
    kernels = np.asarray(kernels)
    if kernels.ndim != 2 or kernels.shape[0] != x.shape[0]:
        raise ShapeError(
            f"kernels shape {kernels.shape} incompatible with input {x.shape}"
        )
    k = kernels.shape[1]
    if k % 2 == 0:
        raise ConfigError(f"kernel length must be odd, got {k}")
    if dilation < 1:
        raise ConfigError(f"dilation must be >= 1, got {dilation}")
    half = (k - 1) // 2 * dilation
    T = x.shape[-1]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)])
    kernels = kernels.reshape(kernels.shape + (1,) * (x.ndim - 1))
    out = np.zeros_like(x)
    for j in range(k):
        off = j * dilation
        out += kernels[:, j] * padded[..., off:off + T]
    return out


def glu(x: np.ndarray) -> np.ndarray:
    """First half of the channels gated by the sigmoid of the second half."""
    n = x.shape[0]
    if n % 2:
        raise ShapeError(f"GLU needs an even channel count, got {n}")
    gate = sigmoid(x[n // 2:])
    gate *= x[:n // 2]
    return gate


def rope(x: np.ndarray, positions) -> np.ndarray:
    """Rotate consecutive feature pairs of x: (..., S, d) by the angles
    positions[s] * theta_j of each sequence position s."""
    d = x.shape[-1]
    if d % 2:
        raise ConfigError(f"RoPE needs an even head dim, got {d}")
    theta = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * theta
    cos, sin = np.cos(ang).astype(x.dtype), np.sin(ang).astype(x.dtype)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention over the sequence axis.

    q, k, v: (..., S, d_head). This is the part whose cost is quadratic in
    the sequence (band) count. The scores are held key-major, (..., key,
    query), so the softmax max and sum reduce over axis -2: NumPy reduces
    many short last-axis rows several times slower than the same work
    across rows. With that, in float32 at head dim 32 the quadratic term
    dominates from about 32 bands; below that, the per-GEMM dispatch and the
    per-query reductions (linear in S) cost as much as the arithmetic.
    """
    # d ** -0.5 is a Python float, so the scaled q keeps the input's dtype.
    scores = k @ np.swapaxes(q * q.shape[-1] ** -0.5, -1, -2)
    scores -= scores.max(axis=-2, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-2, keepdims=True)
    return np.swapaxes(scores, -1, -2) @ v
