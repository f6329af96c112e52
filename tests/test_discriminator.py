from dataclasses import fields

import numpy as np
import pytest

from vocalrestore.audio_io import Waveform
from vocalrestore.discriminator import (
    LEAKY_SLOPE,
    MIN_SAMPLES,
    PERIOD_CONV,
    STFT_CONV,
    DiscriminatorConfig,
    SpectralNormState,
    _conv2d,
    _grid,
    _layer_table,
    _run_stack,
    discriminator_forward,
    init_discriminator_weights,
    leaky_relu,
    spectral_normalize,
)
from vocalrestore.errors import ShapeError
from vocalrestore.spectral import SPEC_RESOLUTIONS

from oracles import conv2d_loops


CONFIG = DiscriminatorConfig()


def _wave(n, seed=0, sr=48000):
    return Waveform(0.3 * np.random.default_rng(seed).standard_normal(n), sr)


def test_config_has_no_fields():
    """Periods, grids and widths are constants; the STFT grids are the
    spectral loss's."""
    assert fields(DiscriminatorConfig) == ()
    with pytest.raises(TypeError):
        DiscriminatorConfig(periods=(2, 3))
    assert CONFIG.stft_resolutions is SPEC_RESOLUTIONS
    assert (CONFIG.periods, CONFIG.channels) == ((2, 3, 5, 7, 11), (8, 16, 32))


def test_branch_count():
    """Eight branches, named and ordered as the weights are drawn."""
    assert [name for name, _, _ in CONFIG.branches] == [
        "period2", "period3", "period5", "period7", "period11",
        "stft2048_512", "stft1024_256", "stft512_128"]


def _normalize_repeatedly(w, calls):
    """`calls` single-iteration estimates through one persisted state: the
    same arithmetic as `calls` power iterations in one call."""
    state = SpectralNormState()
    for _ in range(calls):
        normed = spectral_normalize(w, state, "w")
    return normed


def test_spectral_norm_against_svd():
    """Converged power iteration reproduces the exact largest singular
    value from an SVD oracle."""
    rng = np.random.default_rng(1)
    for shape in [(6, 9), (8, 3, 5, 2)]:
        w = rng.standard_normal(shape)
        sigma = np.linalg.svd(w.reshape(shape[0], -1), compute_uv=False)[0]
        normed = _normalize_repeatedly(w, 200)
        assert np.max(np.abs(normed - w / sigma)) < 1e-10
        post = np.linalg.svd(normed.reshape(shape[0], -1), compute_uv=False)[0]
        assert abs(post - 1.0) < 1e-10


def test_spectral_norm_state_warm_start():
    """Persisted u vectors make repeated single-iteration estimates converge
    to the true sigma, and each call replaces the vector of its name."""
    rng = np.random.default_rng(2)
    w = rng.standard_normal((10, 14))
    sigma = np.linalg.svd(w, compute_uv=False)[0]
    state = SpectralNormState()
    for _ in range(300):
        normed = spectral_normalize(w, state, "w")
    assert np.max(np.abs(normed - w / sigma)) < 1e-10

    before = state.vectors["w"]
    spectral_normalize(rng.standard_normal((10, 14)), state, "w")
    assert not np.array_equal(before, state.vectors["w"])


def test_spectral_norm_scale_invariance_direction():
    w = np.random.default_rng(3).standard_normal((5, 5))
    a = _normalize_repeatedly(w, 100)
    b = _normalize_repeatedly(3.7 * w, 100)
    assert np.max(np.abs(a - b)) < 1e-9


def test_leaky_relu():
    """The result is written into the argument, a fresh conv output."""
    x = np.array([-2.0, 0.0, 3.0])
    assert leaky_relu(x) is x
    assert np.allclose(x, [-0.2, 0.0, 3.0])


@pytest.mark.parametrize("kernel, stride", [
    PERIOD_CONV,
    STFT_CONV,
    (PERIOD_CONV[0], (1, 1)),      # final projections
    (STFT_CONV[0], (1, 1)),
])
def test_conv2d_matches_loop_oracle(kernel, stride):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 17, 11))
    w = rng.standard_normal((4, 3) + kernel)
    bias = rng.standard_normal(4)
    got = _conv2d(x, w, bias, stride)
    want = conv2d_loops(x, w, bias, stride)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kernel, stride", [
    PERIOD_CONV,
    STFT_CONV,
    (PERIOD_CONV[0], (1, 1)),
    (STFT_CONV[0], (1, 1)),
])
@pytest.mark.parametrize("c_in, extra", [(1, 0), (1, 1), (3, 1), (2, 0)])
def test_conv2d_edge_shapes_match_loop_oracle(kernel, stride, c_in, extra):
    """One input channel (layer 0), and inputs no wider, or one tap wider,
    than the kernel on both axes."""
    rng = np.random.default_rng(12 + c_in + extra)
    kh, kw = kernel
    x = rng.standard_normal((c_in, kh + extra, kw + extra))
    w = rng.standard_normal((5, c_in) + kernel)
    bias = rng.standard_normal(5)
    want = conv2d_loops(x, w, bias, stride)
    # The same values through a transposed, non-contiguous view.
    strided = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    for inp in (x, strided):
        got = _conv2d(inp, w, bias, stride)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_conv2d_input_smaller_than_kernel():
    with pytest.raises(ShapeError, match="input 2x9 smaller than kernel 3x3"):
        _conv2d(np.zeros((2, 2, 9)), np.zeros((1, 2, 3, 3)), np.zeros(1), (1, 1))


def test_forward_structure():
    w = init_discriminator_weights(CONFIG, 0)
    outs = discriminator_forward(_wave(MIN_SAMPLES), w, CONFIG)
    assert len(outs) == len(CONFIG.branches)
    for out in outs:
        assert isinstance(out.score, float) and np.isfinite(out.score)
        # one feature map per conv layer plus the final projection
        assert len(out.features) == len(CONFIG.channels) + 1
        assert out.features[-1].shape[0] == 1


def test_forward_deterministic():
    w = init_discriminator_weights(CONFIG, 0)
    x = _wave(MIN_SAMPLES, seed=4)
    a = discriminator_forward(x, w, CONFIG)
    b = discriminator_forward(x, w, CONFIG)
    for oa, ob in zip(a, b):
        assert oa.score == ob.score
        assert all(np.array_equal(fa, fb) for fa, fb in zip(oa.features, ob.features))


def test_forward_zero_input():
    """Silence still produces finite scores (biases are zero, so they are
    exactly zero)."""
    w = init_discriminator_weights(CONFIG, 1)
    outs = discriminator_forward(Waveform(np.zeros(MIN_SAMPLES), 48000), w, CONFIG)
    for out in outs:
        assert out.score == 0.0


def test_forward_too_short():
    """The guard's bound is the real minimum: the 2048/512 branch needs 31
    frames to get through three stride-2 3x3 convs and the 3x3 final conv."""
    assert MIN_SAMPLES == 15360
    w = init_discriminator_weights(CONFIG, 0)
    for n in (64, 15359):
        with pytest.raises(ShapeError, match=f"^need at least 15360 samples, got {n}$"):
            discriminator_forward(_wave(n), w, CONFIG)
    outs = discriminator_forward(_wave(15360), w, CONFIG)
    assert outs[5].features[-1].shape[2] == 1    # stft2048_512: one frame column left


def test_period_fold_shapes():
    """Period branches see a (period, n//period) grid: different periods
    give different first feature shapes."""
    w = init_discriminator_weights(CONFIG, 2)
    outs = discriminator_forward(_wave(MIN_SAMPLES, seed=5), w, CONFIG)
    f2 = outs[0].features[0]
    f3 = outs[1].features[0]
    assert f2.shape != f3.shape
    assert (f2.shape[1], f3.shape[1]) == (2, 3)


def _float64(weights):
    return {k: v.astype(np.float64) for k, v in weights.items()}


def _float64_forward(x, weights):
    """(score, features) per branch of the float64 forward, layer by layer:
    the float64 grid through float64-cast normalized kernels and biases."""
    state = SpectralNormState()
    outs = []
    for branch, (kernel, stride), source in CONFIG.branches:
        grid = _grid(x, source)
        layers = _layer_table(kernel)
        feats = []
        for i, (name, _) in enumerate(layers):
            key = f"{branch}.{name}"
            w = spectral_normalize(weights[f"{key}.weight"].astype(np.float64), state,
                                   f"{key}.weight")
            last = i == len(layers) - 1
            grid = _conv2d(grid, w, weights[f"{key}.bias"].astype(np.float64),
                           (1, 1) if last else stride)
            if not last:
                grid = np.maximum(grid, LEAKY_SLOPE * grid)
            feats.append(grid)
        outs.append((float(grid.mean()), feats))
    return outs


def test_float32_weights_give_float32_features():
    """The stored weights set the forward's dtype; scores are Python floats."""
    w = init_discriminator_weights(CONFIG, 0)
    for out in discriminator_forward(_wave(MIN_SAMPLES), w, CONFIG):
        assert isinstance(out.score, float)
        assert all(f.dtype == np.float32 for f in out.features)


def test_float64_weights_give_float64_forward_bitwise():
    w = init_discriminator_weights(CONFIG, 3)
    x = _wave(MIN_SAMPLES + 777, seed=3)
    outs = discriminator_forward(x, _float64(w), CONFIG)
    for out, (score, feats) in zip(outs, _float64_forward(x, w), strict=True):
        assert out.score == score
        assert all(f.dtype == np.float64 and np.array_equal(f, g)
                   for f, g in zip(out.features, feats, strict=True))


# Largest float32-forward deviation from the float64 forward over weight and
# input seeds 1-10 (the inputs below): features 9.6e-7 of their layer's
# largest magnitude, scores 5.1e-7 absolute. The bounds are three times that.
FEATURE_RTOL_F32 = 3e-6
SCORE_ATOL_F32 = 1.5e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float32_forward_within_bound_of_float64(seed):
    w = init_discriminator_weights(CONFIG, seed)
    x = _wave(MIN_SAMPLES + 777, seed=seed)
    outs = discriminator_forward(x, w, CONFIG)
    for out, (score, feats) in zip(outs, _float64_forward(x, w), strict=True):
        assert abs(out.score - score) < SCORE_ATOL_F32
        for f, g in zip(out.features, feats, strict=True):
            assert f.shape == g.shape
            assert np.max(np.abs(f - g)) < FEATURE_RTOL_F32 * np.max(np.abs(g))


def test_period_branch_matches_time_major_fold():
    """A period branch on the (p, n/p) fold equals, transposed, the stack of
    (5, 1) convs with stride (3, 1) on the (n/p, p) fold, run by the loop
    oracle with the same normalized weights. Each branch runs on a short
    fold (the fewest columns it takes, plus a few) to keep the loops fast.
    The weights are cast to float64, so the branch runs the float64 forward
    the 1e-12 bound is for."""
    w = _float64(init_discriminator_weights(CONFIG, 6))
    names = [f"layer{i}" for i in range(len(CONFIG.channels))] + ["final"]
    for p in CONFIG.periods:
        x = _wave(166 * p + p - 1, seed=6)
        out = _run_stack(_grid(x, p), f"period{p}", PERIOD_CONV, w, SpectralNormState())
        state = SpectralNormState()
        grid = x.samples[:166 * p].reshape(-1, p)[None]
        for i, name in enumerate(names):
            key = f"period{p}.{name}"
            kernel = spectral_normalize(w[f"{key}.weight"], state,
                                        f"{key}.weight").transpose(0, 1, 3, 2)
            last = name == "final"
            grid = conv2d_loops(grid, kernel, w[f"{key}.bias"], (1, 1) if last else (3, 1))
            if not last:
                grid = np.maximum(grid, LEAKY_SLOPE * grid)
            got = out.features[i].transpose(0, 2, 1)
            assert got.shape == grid.shape
            assert np.max(np.abs(got - grid)) < 1e-12 * max(np.max(np.abs(grid)), 1.0)
        assert abs(out.score - grid.mean()) < 1e-12


def test_init_weights_deterministic_and_bounded():
    a = init_discriminator_weights(CONFIG, 9)
    b = init_discriminator_weights(CONFIG, 9)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    for name, arr in a.items():
        assert arr.dtype == np.float32
        if name.endswith(".weight"):
            c_out, c_in, kh, kw = arr.shape
            assert np.max(np.abs(arr)) <= np.sqrt(1.0 / (c_in * kh * kw)) * (1 + 1e-6)
        else:
            assert np.all(arr == 0.0)
