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
    sigmoid,
    silu,
)

from oracles import depthwise_conv_loops, matmul_per_position, rotate_pairs


def _rng(seed=0):
    return np.random.default_rng(seed)


# Input dtypes of the dtype-true kernels, and the bound on |kernel - float64
# reference| for each, for O(1) values.
DTYPES = (np.float64, np.float32)
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def test_silu_sigmoid_values():
    assert silu(np.array([0.0]))[0] == 0.0
    assert abs(silu(np.array([1.0]))[0] - 1.0 / (1.0 + np.exp(-1.0))) < 1e-15
    assert sigmoid(np.array([0.0]))[0] == 0.5
    # extreme inputs saturate without overflow warnings
    big = sigmoid(np.array([-1e6, 1e6]))
    assert np.all(np.isfinite(big)) and big[0] < 1e-20 and big[1] >= 1 - 1e-15


def test_rmsnorm_definition():
    x = _rng(1).standard_normal((6, 11))
    gain = _rng(2).standard_normal(6)
    out = rmsnorm(x, gain)
    for t in range(11):
        col = x[:, t]
        ref = col / np.sqrt(np.mean(col**2) + RMSNORM_DELTA) * gain
        assert np.max(np.abs(out[:, t] - ref)) < 1e-14
    # (features, bands, T), normalized over the feature axis
    x3 = _rng(4).standard_normal((6, 3, 11))
    out3 = rmsnorm(x3, gain)
    for b in range(3):
        for t in range(11):
            col = x3[:, b, t]
            ref = col / np.sqrt(np.mean(col**2) + RMSNORM_DELTA) * gain
            assert np.max(np.abs(out3[:, b, t] - ref)) < 1e-14


def test_rmsnorm_unit_rms():
    x = _rng(3).standard_normal((16, 7)) * 5.0
    out = rmsnorm(x, np.ones(16))
    rms = np.sqrt(np.mean(out**2, axis=0))
    assert np.max(np.abs(rms - 1.0)) < 1e-6


def test_rmsnorm_shape_error():
    with pytest.raises(ShapeError):
        rmsnorm(np.zeros((4, 3)), np.ones(5))


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


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_depthwise_conv_oracle(dilation, k):
    x = _rng(7).standard_normal((3, 20))
    kernels = _rng(8).standard_normal((3, k))
    out = depthwise_conv1d(x, kernels, dilation)
    ref = depthwise_conv_loops(x, kernels, dilation)
    assert out.shape == x.shape
    assert np.max(np.abs(out - ref)) < 1e-12
    # (C, bands, T): each channel's kernel applied to every band
    x3 = _rng(9).standard_normal((3, 4, 20))
    out3 = depthwise_conv1d(x3, kernels, dilation)
    assert out3.shape == x3.shape
    for i in range(4):
        ref = depthwise_conv_loops(x3[:, i], kernels, dilation)
        assert np.max(np.abs(out3[:, i] - ref)) < 1e-12


def test_depthwise_conv_errors():
    x = np.zeros((3, 10))
    with pytest.raises(ConfigError):
        depthwise_conv1d(x, np.zeros((3, 4)), 1)
    with pytest.raises(ConfigError):
        depthwise_conv1d(x, np.zeros((3, 3)), dilation=0)
    with pytest.raises(ShapeError):
        depthwise_conv1d(x, np.zeros((2, 3)), 1)


def test_glu():
    x = _rng(9).standard_normal((8, 5))
    out = glu(x)
    ref = x[:4] * (1.0 / (1.0 + np.exp(-x[4:])))
    assert np.max(np.abs(out - ref)) < 1e-14
    with pytest.raises(ShapeError):
        glu(np.zeros((5, 2)))


def test_rope_identity_at_origin():
    for dtype in DTYPES:
        x = _rng(11).standard_normal((1, 8)).astype(dtype)
        out = rope(x, [0])
        assert out.dtype == dtype
        assert np.array_equal(out, x)


def test_rope_matches_reference():
    """Each sequence position is rotated by its own angle; the output keeps
    the input's dtype."""
    positions = [1, 5, 100]
    for dtype in DTYPES:
        x = _rng(12).standard_normal((2, 3, 16)).astype(dtype)
        out = rope(x, positions)
        assert out.dtype == dtype
        x64 = x.astype(np.float64)
        for h in range(2):
            for s, pos in enumerate(positions):
                ref = rotate_pairs(x64[h, s], pos)
                assert np.max(np.abs(out[h, s] - ref)) < TOL[dtype]


def test_rope_preserves_norm():
    for dtype in DTYPES:
        x = _rng(13).standard_normal((3, 10)).astype(dtype)
        out = rope(x, [17, 4, 250])
        assert out.dtype == dtype
        norms = np.linalg.norm(x.astype(np.float64), axis=-1)
        out_norms = np.linalg.norm(out.astype(np.float64), axis=-1)
        assert np.max(np.abs(out_norms - norms)) < TOL[dtype]
        with pytest.raises(ConfigError):
            rope(np.zeros((3, 5), dtype=dtype), [0, 1, 2])


def test_rope_relative_position():
    """q(p1) . k(p2) depends only on p1 - p2."""
    for dtype in DTYPES:
        rng = _rng(14)
        q, k = (rng.standard_normal((1, 8)).astype(dtype) for _ in range(2))
        dots = [float(rope(q, [p + 3])[0] @ rope(k, [p])[0]) for p in (0, 11, 50)]
        assert max(dots) - min(dots) < 100 * TOL[dtype]


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
        q[0, 0] = 200.0 * np.sqrt(d)
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
    pos = np.arange(S)
    c = attention_core(rope(q, pos), rope(k, pos), v)[:, perm]
    d = attention_core(rope(q[:, perm], pos), rope(k[:, perm], pos), v[:, perm])
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
