"""Deterministic neural kernels of the generator forward path.

The convolution, normalization and gating kernels are channel-first: they
take (C, ..., T) arrays and act on axis 0 (channels) and the last axis
(time). rope and attention_core take (..., sequence, features). All but rope,
which rotates in place, and glu, which writes its gate into its input's gate
half, are pure functions; compute dtype follows the input dtype (RoPE's
tables included), so callers choose precision. No autodiff, no dropout, no
state: depthwise_conv1d is valid-mode, so the padding and the carried past
of a stream are frames the caller joins onto its input.

The kernels carry no parameter that a caller can fold into the weights of a
1x1 conv: rmsnorm has no gain, attention_core no 1/sqrt(d) scale, and silu
and glu take the half-scaled inputs of the tanh form of the sigmoid,
sigmoid(z) = (1 + tanh(z / 2)) / 2. generator folds each of these into the
conv next to it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ShapeError

RMSNORM_DELTA = 1e-6
ROPE_BASE = 10000.0


def silu(x: np.ndarray) -> np.ndarray:
    """x * (1 + tanh(x)), which is SiLU(2x) = 2x * sigmoid(2x): the caller
    feeds x = z / 2 for SiLU(z)."""
    s = np.tanh(x)
    s += 1.0
    s *= x
    return s


def rmsnorm(x: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x^2) + delta), normalized over the channel axis 0; the
    gain is the caller's to fold into the conv that reads the output."""
    # einsum sums the squares without a squared copy of x
    ms = np.einsum("i...,i...->...", x, x)
    ms /= x.shape[0]
    ms += RMSNORM_DELTA
    return x / np.sqrt(ms, out=ms)


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
    """Per-channel dilated valid-mode correlation along time.

    x: (C, ..., T); kernels: (C, k) with k odd, shared over the middle axes.
    With a = dilation * (k - 1) / 2, output frame j is centred on input
    frame j + a and reads only frames of x, so the output has T - 2a frames
    (none if T < 2a). Padding, and the carry of a stream, are the caller's:
    it joins them onto x (see generator._temporal_path).

    The centre tap makes the output buffer and every other tap adds its
    shifted slice of x in place, in tap order.
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
    centre = (k - 1) // 2
    T = max(x.shape[-1] - 2 * centre * dilation, 0)
    kernels = kernels.reshape(kernels.shape + (1,) * (x.ndim - 1))
    out = np.multiply(x[..., centre * dilation:centre * dilation + T], kernels[:, centre])
    for j in (*range(centre), *range(centre + 1, k)):
        out += kernels[:, j] * x[..., j * dilation:j * dilation + T]
    return out


def glu(x: np.ndarray) -> np.ndarray:
    """a * (1 + tanh(b)) for the first half a and second half b of the
    channels, which is 2a * sigmoid(2b): the caller feeds half of the value
    and gate pre-activations for the GLU a' * sigmoid(b'). The result is
    written over b, a view of x, so x is overwritten and no new buffer is
    made; the view keeps all of x alive."""
    n = x.shape[0]
    if n % 2:
        raise ShapeError(f"GLU needs an even channel count, got {n}")
    gate = x[n // 2:]
    np.tanh(gate, out=gate)
    gate += 1.0
    gate *= x[:n // 2]
    return gate


@functools.lru_cache(maxsize=8)
def _rotations(S: int, d: int, dtype: np.dtype) -> np.ndarray:
    """(S, d/2) read-only table of exp(i * s * theta_j) in the complex dtype."""
    theta = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    ang = np.arange(S)[:, None] * theta
    table = (np.cos(ang) + 1j * np.sin(ang)).astype(dtype)
    table.flags.writeable = False
    return table


def rope(x: np.ndarray) -> np.ndarray:
    """Rotate, in place, consecutive feature pairs of x: (..., S, d) by the
    angles s * theta_j of each sequence position s; returns x.

    Each pair (x_2j, x_2j+1) is one complex number x_2j + i x_2j+1, so the
    rotation is one complex multiply on a complex view of x. That view needs
    the feature axis at unit stride.
    """
    S, d = x.shape[-2:]
    if d % 2:
        raise ConfigError(f"RoPE needs an even head dim, got {d}")
    if x.strides[-1] != x.itemsize:
        raise ShapeError(f"RoPE needs the feature axis at unit stride, got strides {x.strides}")
    z = x.view(np.dtype(f"c{2 * x.itemsize}"))
    z *= _rotations(S, d, z.dtype)
    return x


def attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot-product attention over the sequence axis, softmax(q k^T) v; the
    1/sqrt(d) scale is the caller's to fold into q.

    q, k, v: (..., S, d_head). The output has q's memory layout, so a caller
    whose q is a transposed view of its projection buffer gets the output in
    the same order. This is the part whose cost is quadratic in the sequence
    (band) count. The scores are held key-major, (..., key, query), so the
    softmax max and sum reduce over axis -2: NumPy reduces many short
    last-axis rows several times slower than the same work across rows.
    With that, in float32 at head dim 32 the quadratic term dominates from
    about 32 bands; below that, the per-GEMM dispatch and the per-query
    reductions (linear in S) cost as much as the arithmetic.
    """
    scores = k @ np.swapaxes(q, -1, -2)
    scores -= scores.max(axis=-2, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-2, keepdims=True)
    out = np.empty_like(q, shape=q.shape[:-1] + v.shape[-1:])
    return np.matmul(np.swapaxes(scores, -1, -2), v, out=out)
