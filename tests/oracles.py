"""Independent brute-force oracles shared by the tests.

Everything here is deliberately slow and direct: naive summation DFT,
triple-loop convolutions, dense attention with explicit score matrices.
None of it calls the implementations it checks.
"""

import numpy as np


def naive_dft(frame: np.ndarray) -> np.ndarray:
    """O(n^2) summation DFT, one-sided, of a real frame."""
    n = len(frame)
    out = np.zeros(n // 2 + 1, dtype=np.complex128)
    for k in range(n // 2 + 1):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += frame[t] * np.exp(-2j * np.pi * k * t / n)
        out[k] = acc
    return out


def naive_dft_fast(frame: np.ndarray) -> np.ndarray:
    """Outer-product form of the naive DFT (still O(n^2), no FFT)."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (np.exp(-2j * np.pi * k * t / n) * frame).sum(axis=1)


def matmul_per_position(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop per-position affine map."""
    c_out, c_in = w.shape
    T = x.shape[1]
    out = np.zeros((c_out, T))
    for t in range(T):
        for o in range(c_out):
            acc = b[o]
            for i in range(c_in):
                acc += w[o, i] * x[i, t]
            out[o, t] = acc
    return out


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride) -> np.ndarray:
    """Nested-loop valid-mode strided 2-D correlation. x: (C_in, H, W);
    kernel: (C_out, C_in, kh, kw)."""
    c_in, H, W = x.shape
    c_out, _, kh, kw = kernel.shape
    sh, sw = stride
    out = np.zeros((c_out, (H - kh) // sh + 1, (W - kw) // sw + 1))
    for o in range(c_out):
        for r in range(out.shape[1]):
            for c in range(out.shape[2]):
                acc = bias[o]
                for i in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += kernel[o, i, a, b] * x[i, r * sh + a, c * sw + b]
                out[o, r, c] = acc
    return out


def overlap_add_loops(frames: np.ndarray, window_sq: np.ndarray, hop: int):
    """Frame-by-frame overlap-add, frames in ascending order. frames: (T, n);
    returns the summed frames and the summed squared window, each of length
    (T - 1) * hop + n."""
    n_frames, n = frames.shape
    total = (n_frames - 1) * hop + n
    out = np.zeros(total)
    den = np.zeros(total)
    for t in range(n_frames):
        out[t * hop:t * hop + n] += frames[t]
        den[t * hop:t * hop + n] += window_sq
    return out, den


def depthwise_conv_loops(x: np.ndarray, kernels: np.ndarray, dilation: int) -> np.ndarray:
    """Nested-loop dilated depthwise correlation with zero padding."""
    C, T = x.shape
    k = kernels.shape[1]
    half = (k - 1) // 2
    out = np.zeros((C, T))
    for c in range(C):
        for t in range(T):
            acc = 0.0
            for j in range(k):
                src = t + (j - half) * dilation
                if 0 <= src < T:
                    acc += kernels[c, j] * x[c, src]
            out[c, t] = acc
    return out


def dense_attention(x, wq, wk, wv, wo, bq, bk, bv, bo, heads, rope_base=10000.0,
                    use_rope=True):
    """Explicit-score-matrix attention over the sequence axis of x: (N, S)."""
    N, S = x.shape
    d = N // heads
    q_full = wq @ x + bq[:, None]
    k_full = wk @ x + bk[:, None]
    v_full = wv @ x + bv[:, None]
    out_full = np.zeros((N, S))
    for h in range(heads):
        rows = slice(h * d, (h + 1) * d)
        q, k, v = q_full[rows], k_full[rows], v_full[rows]
        if use_rope:
            q = np.column_stack([rotate_pairs(q[:, s], s, rope_base) for s in range(S)])
            k = np.column_stack([rotate_pairs(k[:, s], s, rope_base) for s in range(S)])
        scores = np.zeros((S, S))
        for a in range(S):
            for b in range(S):
                scores[a, b] = float(q[:, a] @ k[:, b]) / np.sqrt(d)
        for a in range(S):
            e = np.exp(scores[a] - scores[a].max())
            w = e / e.sum()
            out_full[rows, a] = v @ w
    return wo @ out_full + bo[:, None]


def rotate_pairs(vec: np.ndarray, position: int, base: float = 10000.0) -> np.ndarray:
    """Reference rotary encoding of a single vector at one position."""
    d = len(vec)
    out = np.empty_like(vec)
    for j in range(d // 2):
        theta = base ** (-2.0 * j / d)
        a, b = vec[2 * j], vec[2 * j + 1]
        c, s = np.cos(position * theta), np.sin(position * theta)
        out[2 * j] = a * c - b * s
        out[2 * j + 1] = a * s + b * c
    return out


def mel_boundary_oracle(F: int, n_band: int, sample_rate: int) -> np.ndarray:
    """Ideal real-valued band widths from equally spaced mel points."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    pts = inv(np.linspace(0.0, mel(sample_rate / 2.0), n_band + 1))
    return np.diff(pts / (sample_rate / 2.0) * F)
