import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vocalrestore.errors import ConfigError, ShapeError
from vocalrestore.nncore import (
    RMSNORM_DELTA,
    attention_core,
    depthwise_conv1d,
    glu,
    pointwise_conv,
    rmsnorm,
    rope,
    silu,
)

from oracles import dense_attention, depthwise_conv_loops, matmul_per_position, rotate_pairs


def _rng(seed=0):
    return np.random.default_rng(seed)


# Input dtypes of the dtype-true kernels, and the bound on |kernel - float64
# reference| for each, for O(1) values.
DTYPES = (np.float64, np.float32)
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_silu_sigmoid_values():
    """silu takes half of the SiLU input: silu(z / 2) = z * sigmoid(z)."""
    z = _rng(0).standard_normal((4, 3, 9)) * 4.0
    assert np.max(np.abs(silu(z / 2) - z * _sigmoid(z))) < 1e-14
    assert silu(np.array([0.0]))[0] == 0.0
    for dtype in DTYPES:
        out = silu((z / 2).astype(dtype))
        assert out.dtype == dtype
        assert np.max(np.abs(out - z * _sigmoid(z))) < 10 * TOL[dtype]
    # extreme inputs saturate without overflow warnings
    with np.errstate(all="raise"):
        big = silu(np.array([-1e6, 1e6]))
    assert big[0] == 0.0 and big[1] == 2e6


def test_rmsnorm_definition():
    x = _rng(1).standard_normal((6, 11))
    out = rmsnorm(x)
    for t in range(11):
        col = x[:, t]
        ref = col / np.sqrt(np.mean(col**2) + RMSNORM_DELTA)
        assert np.max(np.abs(out[:, t] - ref)) < 1e-14
    # (features, bands, T), normalized over the feature axis; a strided
    # (features, T) band slice gives the same columns
    x3 = _rng(4).standard_normal((6, 3, 11))
    out3 = rmsnorm(x3)
    for b in range(3):
        assert np.array_equal(rmsnorm(x3[:, b]), out3[:, b])
        for t in range(11):
            col = x3[:, b, t]
            ref = col / np.sqrt(np.mean(col**2) + RMSNORM_DELTA)
            assert np.max(np.abs(out3[:, b, t] - ref)) < 1e-14
    for dtype in DTYPES:
        assert rmsnorm(x3.astype(dtype)).dtype == dtype


def test_rmsnorm_unit_rms():
    x = _rng(3).standard_normal((16, 7)) * 5.0
    out = rmsnorm(x)
    rms = np.sqrt(np.mean(out**2, axis=0))
    assert np.max(np.abs(rms - 1.0)) < 1e-6


def test_pointwise_conv_oracle():
    x = _rng(4).standard_normal((5, 9))
    w = _rng(5).standard_normal((7, 5))
    b = _rng(6).standard_normal(7)
    assert np.max(np.abs(pointwise_conv(x, w, b) - matmul_per_position(x, w, b))) < 1e-12
    with pytest.raises(ShapeError):
        pointwise_conv(x, np.zeros((7, 6)), np.zeros(7))
    # (C_in, bands, T): the same map applied to every band
    x3 = _rng(7).standard_normal((5, 3, 9))
    out3 = pointwise_conv(x3, w, b)
    assert out3.shape == (7, 3, 9)
    for i in range(3):
        assert np.max(np.abs(out3[:, i] - matmul_per_position(x3[:, i], w, b))) < 1e-12
    with pytest.raises(ShapeError):
        pointwise_conv(x3, np.zeros((7, 6)), np.zeros(7))


def _same(x, kernels, dilation):
    """The same-length conv: the valid-mode kernel over x padded by its
    reach a of zeros on each side."""
    a = (kernels.shape[1] - 1) // 2 * dilation
    return depthwise_conv1d(np.pad(x, [(0, 0)] * (x.ndim - 1) + [(a, a)]), kernels, dilation)


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_depthwise_conv_oracle(dilation, k):
    x = _rng(7).standard_normal((3, 20))
    kernels = _rng(8).standard_normal((3, k))
    out = _same(x, kernels, dilation)
    ref = depthwise_conv_loops(x, kernels, dilation)
    assert out.shape == x.shape
    assert np.max(np.abs(out - ref)) < 1e-12
    # (C, bands, T): each channel's kernel applied to every band
    x3 = _rng(9).standard_normal((3, 4, 20))
    out3 = _same(x3, kernels, dilation)
    assert out3.shape == x3.shape
    for i in range(4):
        ref = depthwise_conv_loops(x3[:, i], kernels, dilation)
        assert np.max(np.abs(out3[:, i] - ref)) < 1e-12


def _padded_depthwise(x, kernels, dilation):
    """The zero-padded form: pad both ends by the reach, sum the k shifted
    products tap by tap into a zero buffer."""
    half = (kernels.shape[1] - 1) // 2 * dilation
    T = x.shape[-1]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)])
    kernels = kernels.reshape(kernels.shape + (1,) * (x.ndim - 1))
    out = np.zeros_like(x)
    for j in range(kernels.shape[1]):
        out += kernels[:, j] * padded[..., j * dilation:j * dilation + T]
    return out


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
def test_depthwise_conv_trim_bitwise(dilation):
    """At the generator's kernel length 3 the centre-first, shifted-slice
    kernel sums the same two products per output as the padded form and the
    loop oracle, so all three agree bit for bit, including a T shorter than
    the dilation."""
    kernels = _rng(10).standard_normal((4, 3))
    for T in (3, 30):
        x = _rng(11).standard_normal((4, 5, T))
        for dtype in DTYPES:
            xd, kd = x.astype(dtype), kernels.astype(dtype)
            out = _same(xd, kd, dilation)
            assert out.dtype == dtype
            assert np.array_equal(out, _padded_depthwise(xd, kd, dilation))
        out = _same(x, kernels, dilation)
        for b in range(5):
            assert np.array_equal(out[:, b], depthwise_conv_loops(x[:, b], kernels, dilation))


@pytest.mark.parametrize("dilation", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_depthwise_conv_carried_pushes_bitwise(dilation, k):
    """Pushed in pieces, each push joining the carry of input frames the
    later outputs still need in front of the piece (and a frames of zeros
    behind the last one), the conv emits every frame of the one-push output
    once and bit for bit, for pushes shorter than its reach too."""
    x = _rng(12).standard_normal((3, 2, 40))
    kernels = _rng(13).standard_normal((3, k))
    whole = _same(x, kernels, dilation)
    a = (k - 1) // 2 * dilation
    for sizes in ([40], [13, 27], [1] * 40, [5, 1, 2, 9, 23]):
        past, outs, start = np.zeros((3, 2, a)), [], 0
        for i, n in enumerate(sizes):
            last = i == len(sizes) - 1
            piece = x[..., start:start + n]
            seq = np.concatenate([past, piece, np.zeros((3, 2, a if last else 0))], axis=-1)
            out = depthwise_conv1d(seq, kernels, dilation)
            # the frames later outputs read: the reach on both sides of the next one
            past = seq[..., out.shape[-1]:past.shape[-1] + n]
            assert past.shape[-1] <= 2 * a or last
            outs.append(out)
            start += n
        assert np.array_equal(np.concatenate(outs, axis=-1), whole), sizes


def test_depthwise_conv_errors():
    x = np.zeros((3, 10))
    with pytest.raises(ConfigError):
        depthwise_conv1d(x, np.zeros((3, 4)), 1)
    with pytest.raises(ConfigError):
        depthwise_conv1d(x, np.zeros((3, 3)), 0)
    with pytest.raises(ShapeError):
        depthwise_conv1d(x, np.zeros((2, 3)), 1)
    # an input shorter than the two reaches has no frame whose taps all arrived
    assert depthwise_conv1d(np.zeros((3, 2, 3)), np.zeros((3, 3)), 2).shape == (3, 2, 0)


def test_glu():
    """glu takes half of the GLU input: glu(x / 2) = a * sigmoid(b) for the
    value half a and gate half b of x."""
    x = _rng(9).standard_normal((8, 5)) * 4.0
    ref = x[:4] * _sigmoid(x[4:])
    assert np.max(np.abs(glu(x / 2) - ref)) < 1e-14
    for dtype in DTYPES:
        out = glu((x / 2).astype(dtype))
        assert out.dtype == dtype
        assert np.max(np.abs(out - ref)) < 10 * TOL[dtype]
    with np.errstate(all="raise"):
        big = glu(np.array([[3.0], [3.0], [-1e6], [1e6]]))
    assert big[0, 0] == 0.0 and big[1, 0] == 6.0
    with pytest.raises(ShapeError):
        glu(np.zeros((5, 2)))


def test_rope_identity_at_origin():
    """Position 0 is not rotated; rope works in place and returns x."""
    for dtype in DTYPES:
        x = _rng(11).standard_normal((1, 8)).astype(dtype)
        ref = x.copy()
        out = rope(x)
        assert out is x and out.dtype == dtype
        assert np.array_equal(out, ref)


def test_rope_matches_reference():
    """Each sequence position s is rotated by its own angle, in place, on a
    contiguous array or on a transposed view with the feature axis at unit
    stride; the output keeps the input's dtype."""
    S = 5
    for dtype in DTYPES:
        base = _rng(12).standard_normal((S, 2, 16)).astype(dtype)
        x64 = base.transpose(1, 0, 2).astype(np.float64)
        for x in (base.transpose(1, 0, 2).copy(), base.transpose(1, 0, 2)):
            out = rope(x)
            assert out.dtype == dtype
            for h in range(2):
                for s in range(S):
                    ref = rotate_pairs(x64[h, s], s)
                    assert np.max(np.abs(out[h, s] - ref)) < TOL[dtype]
        with pytest.raises(ShapeError):
            rope(np.zeros((3, 16), dtype=dtype)[:, ::2])


def test_rope_preserves_norm():
    for dtype in DTYPES:
        x = _rng(13).standard_normal((3, 10)).astype(dtype)
        norms = np.linalg.norm(x.astype(np.float64), axis=-1)
        out = rope(x)
        assert out.dtype == dtype
        out_norms = np.linalg.norm(out.astype(np.float64), axis=-1)
        assert np.max(np.abs(out_norms - norms)) < TOL[dtype]
        with pytest.raises(ConfigError):
            rope(np.zeros((3, 5), dtype=dtype))


def test_rope_relative_position():
    """q(p1) . k(p2) depends only on p1 - p2."""
    S = 60
    for dtype in DTYPES:
        rng = _rng(14)
        q, k = (np.tile(rng.standard_normal(8), (S, 1)).astype(dtype) for _ in range(2))
        rope(q)
        rope(k)
        dots = [float(q[p + 3] @ k[p]) for p in (0, 11, 50)]
        assert max(dots) - min(dots) < 100 * TOL[dtype]


@pytest.mark.parametrize("use_rope", [False, True])
def test_attention_core_matches_dense(use_rope):
    """Per-head projections, RoPE (optional) and attention_core on a q that
    carries the 1/sqrt(d) scale, against the explicit-score oracle. q, k and v
    are transposed views of a (S, heads, d) buffer, as the generator passes
    them, and the output comes back in that memory order."""
    N, S, heads = 8, 6, 2
    d = N // heads
    rng = _rng(16)
    x = rng.standard_normal((N, S))
    mats = [rng.standard_normal((N, N)) / np.sqrt(N) for _ in range(4)]
    biases = [0.1 * rng.standard_normal(N) for _ in range(4)]
    ref = dense_attention(x, *mats, *biases, heads, use_rope=use_rope)

    def project(i, scale=1.0):
        y = x.T @ (mats[i] * scale).T + biases[i] * scale         # (S, N)
        return y.reshape(S, heads, d).transpose(1, 0, 2)           # (heads, S, d)

    q, k, v = project(0, d ** -0.5), project(1), project(2)
    if use_rope:
        rope(q)
        rope(k)
    o = attention_core(q, k, v)
    assert o.shape == (heads, S, d) and o.strides == q.strides
    out = mats[3] @ o.transpose(1, 0, 2).reshape(S, N).T + biases[3][:, None]
    assert np.max(np.abs(out - ref)) < 1e-12


def test_attention_core_uniform_keys():
    """Identical keys give the mean of the values."""
    for dtype in DTYPES:
        rng = _rng(15)
        q = rng.standard_normal((4, 8)).astype(dtype)
        k = np.tile(rng.standard_normal(8), (4, 1)).astype(dtype)
        v = rng.standard_normal((4, 8)).astype(dtype)
        out = attention_core(q, k, v)
        assert out.dtype == dtype
        assert np.max(np.abs(out - v.astype(np.float64).mean(axis=0))) < TOL[dtype]


def test_attention_core_one_hot():
    """A key that dominates the scores routes its value through."""
    d = 8
    for dtype in DTYPES:
        k = np.zeros((3, d), dtype=dtype)
        k[1, 0] = 1.0
        q = np.zeros((1, d), dtype=dtype)
        q[0, 0] = 200.0
        v = np.arange(24, dtype=dtype).reshape(3, d)
        out = attention_core(q, k, v)
        assert out.dtype == dtype
        assert np.max(np.abs(out[0] - v[1])) < 1e-10


def test_attention_permutation_equivariance_without_rope():
    """attention_core commutes with a permutation of the sequence axis; RoPE,
    keyed on sequence position, breaks that symmetry."""
    rng = _rng(17)
    S = 7
    q, k, v = (rng.standard_normal((2, S, 4)) for _ in range(3))
    perm = rng.permutation(S)
    a = attention_core(q, k, v)[:, perm]
    b = attention_core(q[:, perm], k[:, perm], v[:, perm])
    assert np.max(np.abs(a - b)) < 1e-12
    c = attention_core(rope(q.copy()), rope(k.copy()), v)[:, perm]
    d = attention_core(rope(q[:, perm]), rope(k[:, perm]), v[:, perm])
    assert np.max(np.abs(c - d)) > 1e-6


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_attention_rows_convex(seed):
    """Attention output stays inside the convex hull of the values, so it
    is bounded by per-coordinate value extrema."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((5, 4)) * 3
    k = rng.standard_normal((5, 4)) * 3
    v = rng.standard_normal((5, 4))
    out = attention_core(q, k, v)
    assert np.all(out <= v.max(axis=0) + 1e-12)
    assert np.all(out >= v.min(axis=0) - 1e-12)
