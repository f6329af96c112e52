import json
import multiprocessing
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

from vocalrestore import bandsplit, blas, generator
from vocalrestore.audio_io import Waveform
from vocalrestore.bandsplit import pack_band_features, reassemble
from vocalrestore.errors import ConfigError, FormatError, SampleRateError, ShapeError
from vocalrestore.generator import (
    CONVNEXT_BLOCKS_PER_LAYER,
    LAYER_SCALE_INIT,
    ModelConfig,
    WEIGHT_MAGIC,
    band_sequence_block,
    check_weights,
    generator_forward,
    init_weights,
    load_weights,
    parameter_manifest,
    receptive_field,
    restore,
    save_weights,
    synthesis_head,
    toy_config,
)
from vocalrestore.nncore import RMSNORM_DELTA
from vocalrestore.spectral import ComplexSpectrogram, StftParams, istft, stft

from oracles import dense_attention, depthwise_conv_loops


def _wave(n, seed=0, sr=16000, amp=0.1):
    return Waveform(amp * np.random.default_rng(seed).standard_normal(n), sr)


def test_config_validation():
    with pytest.raises(ShapeError):
        toy_config(n_band=200)          # more bands than bins
    with pytest.raises(ShapeError):
        toy_config(N=10, heads=3)
    with pytest.raises(ConfigError, match="N, heads and L must be >= 1"):
        toy_config(L=0)


def test_dilation_schedule():
    cfg = toy_config()
    assert cfg.dilations(0) == (1, 2, 1)
    assert cfg.dilations(1) == (1, 4, 1)
    assert cfg.dilations(2) == (1, 8, 1)
    assert cfg.dilations(9) == (1, 8, 1)   # capped


def test_config_text_round_trip():
    cfg = toy_config(n_band=4)
    assert ModelConfig.from_text(cfg.to_text()) == cfg
    with pytest.raises(FormatError):
        ModelConfig.from_text("nonsense_key = 3\n")


@pytest.mark.parametrize("line, cause", [
    ("conv_kernel = 3", "unknown config key 'conv_kernel'"),
    ("dilation_cap = 8", "unknown config key 'dilation_cap'"),
    ("ff_expansion = 2", "unknown config key 'ff_expansion'"),
    ("eps = 1e-08", "unknown config key 'eps'"),
    ("N = 32", "config key 'N' is listed twice"),
])
def test_config_refuses_what_it_cannot_apply(line, cause):
    """The architecture's constants and bandsplit's envelope floor are not
    config fields, and a key set twice has no one value: either is refused
    by name, not passed on to the constructor or settled by the last line."""
    with pytest.raises(FormatError, match=cause):
        ModelConfig.from_text(toy_config().to_text() + line + "\n")


@pytest.mark.parametrize("key, value", [("n_fft", 4095), ("hop", 8192)])
def test_config_rejects_bad_stft_grid(key, value):
    """An odd n_fft or a hop above n_fft fails when the config is parsed."""
    with pytest.raises(ConfigError, match=key):
        ModelConfig.from_text(f"{key} = {value}\n")


def test_manifest_parameter_count():
    """Total parameter count against a closed-form recount."""
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    widths = cfg.layout().widths
    N, ff, k = cfg.N, cfg.ff_expansion, cfg.conv_kernel

    expected = 0
    for bw in widths:
        c = 2 * bw + 1
        expected += c + N * c + N                      # stem norm + proj
        expected += N + (N * N + N) + (4 * bw * N + 4 * bw)  # head
    per_temporal = (N * k + N) + N + (2 * ff * N * N + 2 * ff * N) \
        + (N * ff * N + N) + N
    per_layer = N + 4 * (N * N + N) \
        + N + 2 * (ff * N * N + ff * N) + (N * ff * N + N) \
        + CONVNEXT_BLOCKS_PER_LAYER * per_temporal
    expected += cfg.L * per_layer

    manifest = parameter_manifest(cfg)
    total = sum(int(np.prod(shape)) for shape in manifest.values())
    assert total == expected


def test_manifest_names_and_shapes():
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    manifest = parameter_manifest(cfg)
    widths = cfg.layout().widths
    assert manifest["stem.band0.proj.weight"] == (8, 2 * widths[0] + 1)
    assert manifest["block1.attn.q.weight"] == (8, 8)
    assert manifest["block0.temporal2.pw1.weight"] == (2 * 2 * 8, 8)
    assert manifest["head.band3.conv2.weight"] == (4 * widths[3], 8)
    assert all(f"block{l}" in " ".join(manifest) for l in range(2))


def test_init_weights_properties():
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    w1 = init_weights(cfg, seed=7)
    w2 = init_weights(cfg, seed=7)
    w3 = init_weights(cfg, seed=8)
    assert all(np.array_equal(w1[k], w2[k]) for k in w1)
    assert any(not np.array_equal(w1[k], w3[k]) for k in w1)
    for name, arr in w1.items():
        assert arr.dtype == np.float32
        if name.endswith("norm.gain"):
            assert np.all(arr == 1.0)
        elif name.endswith(".gamma"):
            assert np.allclose(arr, LAYER_SCALE_INIT)
        elif name.endswith(".bias"):
            assert np.all(arr == 0.0)
        else:
            bound = np.sqrt(1.0 / arr.shape[-1]) * (1 + 1e-6)
            assert np.max(np.abs(arr)) <= bound
    check_weights(w1, cfg)


def test_check_weights_errors():
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    w = init_weights(cfg, 0)
    broken = dict(w)
    del broken["block0.attn.q.weight"]
    with pytest.raises(ShapeError, match=r"missing=\['block0.attn.q.weight'\] extra=\[\]"):
        check_weights(broken, cfg)
    broken = dict(w)
    broken["extra.thing"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(ShapeError, match=r"missing=\[\] extra=\['extra.thing'\]"):
        check_weights(broken, cfg)
    broken = dict(w)
    broken["block0.attn.q.weight"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ShapeError):
        check_weights(broken, cfg)


def test_save_load_round_trip(tmp_path):
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    w = init_weights(cfg, 3)
    path = tmp_path / "w.bin"
    save_weights(w, path)
    back = load_weights(path)
    assert set(back) == set(w)
    assert all(np.array_equal(back[k], w[k]) for k in w)

    raw = path.read_bytes()
    assert raw[:8] == WEIGHT_MAGIC


def test_load_weights_errors(tmp_path):
    cfg = toy_config(n_band=2, N=4, L=1, heads=2)
    w = init_weights(cfg, 0)
    path = tmp_path / "w.bin"
    save_weights(w, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(FormatError):
        load_weights(bad)

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(FormatError, match="truncated payload for"):
        load_weights(trunc)

    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(raw[:8] + raw[8:12] + b"{" * (len(raw) - 12))
    with pytest.raises(FormatError):
        load_weights(corrupt)

    # a second q entry at k's offset would otherwise load k's bytes as q
    (mlen,) = struct.unpack("<I", raw[8:12])
    entries = json.loads(raw[12:12 + mlen])
    k_entry = next(e for e in entries if e["name"] == "block0.attn.k.weight")
    entries.append(dict(k_entry, name="block0.attn.q.weight"))
    text = json.dumps(entries).encode()
    dup = tmp_path / "dup.bin"
    dup.write_bytes(WEIGHT_MAGIC + struct.pack("<I", len(text)) + text + raw[12 + mlen:])
    with pytest.raises(FormatError, match=r"dup\.bin: manifest lists 'block0\.attn\.q\.weight' twice"):
        load_weights(dup)


def _packed(cfg, seed=0, n=2000):
    x = _wave(n, seed=seed, sr=cfg.sample_rate)
    spec = stft(x, StftParams(n_fft=cfg.n_fft, hop=cfg.hop))
    return [p.astype(np.float32) for p in pack_band_features(spec, cfg.layout())]


def _zero_block_projections(w, cfg):
    """Zero every projection that feeds a residual, making each block an
    exact identity."""
    out = dict(w)
    for layer in range(cfg.L):
        p = f"block{layer}"
        for name in (f"{p}.attn.out.weight", f"{p}.attn.out.bias",
                     f"{p}.ffn.w_out.weight", f"{p}.ffn.w_out.bias"):
            out[name] = np.zeros_like(w[name])
        for j in range(CONVNEXT_BLOCKS_PER_LAYER):
            out[f"{p}.temporal{j}.gamma"] = np.zeros_like(w[f"{p}.temporal{j}.gamma"])
    return out


def test_zeroed_projections_make_block_identity():
    cfg = toy_config(n_band=4, N=8, L=2, heads=2)
    w = {k: v.astype(np.float32) for k, v in
         _zero_block_projections(init_weights(cfg, 1), cfg).items()}
    H = np.asarray(
        np.random.default_rng(5).standard_normal((8, 4, 12)), dtype=np.float32
    )
    for layer in range(cfg.L):
        out = band_sequence_block(H, w, cfg, layer)
        assert np.array_equal(out, H)


def _sublayer_weights(cfg, seed, zeroed):
    """float64 block weights with random norm gains and biases, every
    temporal gamma at zero and the residual projection `zeroed` (a prefix
    such as "attn.out") at zero, so that band_sequence_block adds exactly one
    sublayer's output to its input."""
    rng = np.random.default_rng(seed)
    w = {}
    for name, arr in init_weights(cfg, seed).items():
        if name.endswith("norm.gain"):
            arr = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith(".bias"):
            arr = 0.1 * rng.standard_normal(arr.shape)
        if name.endswith(".gamma") or f".{zeroed}." in name:
            arr = np.zeros(arr.shape)
        w[name] = np.asarray(arr, dtype=np.float64)
    return w


def _rmsnorm_column(h, gain):
    return h / np.sqrt(np.mean(h**2) + RMSNORM_DELTA) * gain


def test_attention_sublayer_oracle():
    """Cross-band attention against explicit per-frame dense attention over
    the bands, with RoPE keyed on band index (FFN output zeroed, float64)."""
    cfg = toy_config(n_band=6, N=8, L=1, heads=2)
    w = _sublayer_weights(cfg, 20, "ffn.w_out")
    H = np.random.default_rng(21).standard_normal((8, 6, 5))
    delta = band_sequence_block(H, w, cfg, 0) - H
    gain = w["block0.attn.norm.gain"]
    mats = [w[f"block0.attn.{n}.weight"] for n in ("q", "k", "v", "out")]
    biases = [w[f"block0.attn.{n}.bias"] for n in ("q", "k", "v", "out")]
    for t in range(H.shape[2]):
        x = np.column_stack([_rmsnorm_column(H[:, b, t], gain) for b in range(6)])
        ref = dense_attention(x, *mats, *biases, cfg.heads)     # (N, bands)
        assert np.max(np.abs(delta[:, :, t] - ref)) < 1e-12


def test_ffn_sublayer_oracle():
    """SwiGLU feedforward against a per-(band, frame) loop: W_out (SiLU(W_gate
    x) * (W_in x)) on the RMS-normalized input (attention output zeroed,
    float64)."""
    cfg = toy_config(n_band=3, N=4, L=1, heads=2)
    w = _sublayer_weights(cfg, 10, "attn.out")
    H = np.random.default_rng(11).standard_normal((4, 3, 6))
    delta = band_sequence_block(H, w, cfg, 0) - H
    p = "block0.ffn"
    for b in range(3):
        for t in range(6):
            x = _rmsnorm_column(H[:, b, t], w[f"{p}.norm.gain"])
            g = w[f"{p}.w_gate.weight"] @ x + w[f"{p}.w_gate.bias"]
            hidden = g / (1.0 + np.exp(-g)) * (w[f"{p}.w_in.weight"] @ x + w[f"{p}.w_in.bias"])
            ref = w[f"{p}.w_out.weight"] @ hidden + w[f"{p}.w_out.bias"]
            assert np.max(np.abs(delta[:, b, t] - ref)) < 1e-12


def _gamma_weights(cfg, seed, gamma):
    """init_weights with every layer-scale gamma set to `gamma`, so the
    temporal pathway shows in the output."""
    w = init_weights(cfg, seed)
    for k in list(w):
        if k.endswith(".gamma"):
            w[k] = np.full_like(w[k], gamma)
    return w


@pytest.mark.parametrize("zero_temporal", [False, True])
def test_block_pathway_combination(zero_temporal):
    """Both pathways read the block input and their deltas add: block(H) - H
    equals the attention-only delta (temporal gammas zeroed) plus the
    temporal-only delta (attention and FFN outputs zeroed), in float64. A
    temporal path fed H + attention delta fails this. With every gamma at 0
    the temporal pathway is switched off exactly and the block is its
    attention-only form."""
    cfg = toy_config(n_band=4, N=8, L=1, heads=2)
    gamma = 0.0 if zero_temporal else 0.5
    w = {k: v.astype(np.float64) for k, v in _gamma_weights(cfg, 2, gamma).items()}
    no_temporal = {k: np.zeros_like(v) if k.endswith(".gamma") else v for k, v in w.items()}
    no_attention = {
        k: np.zeros_like(v) if ".attn.out." in k or ".ffn.w_out." in k else v
        for k, v in w.items()
    }
    H = np.random.default_rng(6).standard_normal((8, 4, 12))
    both, attn, temporal = (
        band_sequence_block(H, ws, cfg, 0) - H for ws in (w, no_temporal, no_attention)
    )
    assert np.max(np.abs(attn)) > 1e-3
    if zero_temporal:
        assert not np.any(temporal)
        assert np.array_equal(both, attn)
    else:
        assert np.max(np.abs(temporal)) > 1e-3
        assert np.max(np.abs(both - (attn + temporal))) < 1e-12


def test_temporal_receptive_field():
    """A single-frame perturbation can only propagate 1 + d + 1 frames per
    layer through the dilated depthwise stack; attention is frame-local.
    Through the whole multi-layer forward pass, a change to input frame t0
    reaches output frames t0 - R and t0 + R and none beyond them."""
    cfg = toy_config(n_band=2, N=8, L=1, heads=2)
    w = _gamma_weights(cfg, 4, 1.0)
    rng = np.random.default_rng(7)
    T, t0 = 31, 15
    H = np.asarray(rng.standard_normal((8, 2, T)), dtype=np.float32)
    H2 = H.copy()
    H2[:, :, t0] += 1.0
    a = band_sequence_block(H, w, cfg, 0)
    b = band_sequence_block(H2, w, cfg, 0)
    diff = np.abs(a - b).max(axis=(0, 1))
    radius = receptive_field(cfg)
    assert radius == 4
    assert diff[t0] > 0
    outside = np.concatenate([diff[: t0 - radius], diff[t0 + radius + 1 :]])
    assert np.all(outside == 0.0)

    cfg = toy_config()
    R = receptive_field(cfg)
    assert R == 10 and receptive_field(ModelConfig()) == 50
    w = _gamma_weights(cfg, 4, 0.5)
    params = StftParams(n_fft=cfg.n_fft, hop=cfg.hop)
    X = stft(_wave(40 * cfg.hop, seed=8, sr=cfg.sample_rate), params)
    t0 = 20
    bins = X.bins.copy()
    bins[:, t0] *= 2.0
    a = generator_forward(X, w, cfg).bins
    b = generator_forward(ComplexSpectrogram(bins, params), w, cfg).bins
    diff = np.abs(a - b).max(axis=0)
    assert diff[t0 - R] > 0 and diff[t0 + R] > 0
    assert np.all(diff[: t0 - R] == 0.0) and np.all(diff[t0 + R + 1:] == 0.0)


def test_forward_shape_and_determinism():
    cfg = toy_config()
    w = init_weights(cfg, 11)
    x = _wave(3000, seed=1, sr=cfg.sample_rate)
    spec = stft(x, StftParams(n_fft=cfg.n_fft, hop=cfg.hop))
    y1 = generator_forward(spec, w, cfg)
    y2 = generator_forward(spec, w, cfg)
    assert y1.bins.shape == spec.bins.shape
    assert y1.bins.dtype == np.complex128
    assert np.array_equal(y1.bins, y2.bins)
    with pytest.raises(ShapeError):
        generator_forward(spec, w, toy_config(n_fft=512, hop=256))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stack_keeps_weights_dtype(dtype):
    """With weights and input in one dtype, the block stack and the heads
    compute in it: no kernel promotes float32 to float64 (RoPE tables,
    attention scale) or demotes float64."""
    cfg = toy_config()
    w = {k: v.astype(dtype) for k, v in _gamma_weights(cfg, 3, 0.5).items()}
    H = np.random.default_rng(12).standard_normal((cfg.N, cfg.n_band, 9)).astype(dtype)
    for layer in range(cfg.L):
        H = band_sequence_block(H, w, cfg, layer)
        assert H.dtype == dtype
    for i in range(cfg.n_band):
        assert synthesis_head(H[:, i], w, i).dtype == dtype


def test_forward_matches_float64_reference():
    """generator_forward on the float32 weights against generator_forward on
    the same weights cast to float64, which runs the whole forward in
    float64, at the full config with the temporal path live: within 1e-5 of
    the output RMS."""
    cfg = ModelConfig()
    w = _gamma_weights(cfg, 0, 0.5)
    X = stft(_wave(2 * cfg.sample_rate, seed=9, sr=cfg.sample_rate),
             StftParams(n_fft=cfg.n_fft, hop=cfg.hop))
    out = generator_forward(X, w, cfg).bins
    ref = generator_forward(X, {k: v.astype(np.float64) for k, v in w.items()}, cfg).bins
    rms = np.sqrt(np.mean(np.abs(ref) ** 2))
    assert np.max(np.abs(out - ref)) <= 1e-5 * rms


def _unfolded_forward(X, w, cfg):
    """The generator from its definitions, in float64, with nothing folded:
    RMSNorm multiplies its gain, sigmoid is 1 / (1 + e^-x), attention is the
    explicit-score oracle (1/sqrt(d) on the scores, rotate_pairs RoPE), and
    each layer-scale gamma multiplies the temporal block's output."""
    w = {k: v.astype(np.float64) for k, v in w.items()}
    layout = cfg.layout()

    def norm(x, gain):
        x = x / np.sqrt(np.mean(x**2, axis=0, keepdims=True) + RMSNORM_DELTA)
        return x * gain.reshape((-1,) + (1,) * (x.ndim - 1))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def conv(x, p):
        y = np.tensordot(w[f"{p}.weight"], x, axes=(1, 0))
        return y + w[f"{p}.bias"].reshape((-1,) + (1,) * (x.ndim - 1))

    packed = pack_band_features(X, layout)
    H = np.stack([conv(norm(f, w[f"stem.band{i}.norm.gain"]), f"stem.band{i}.proj")
                  for i, f in enumerate(packed)], axis=1)
    for layer in range(cfg.L):
        p = f"block{layer}"
        mats = [w[f"{p}.attn.{n}.weight"] for n in ("q", "k", "v", "out")]
        biases = [w[f"{p}.attn.{n}.bias"] for n in ("q", "k", "v", "out")]
        A = np.stack([dense_attention(norm(H[:, :, t], w[f"{p}.attn.norm.gain"]),
                                      *mats, *biases, cfg.heads)
                      for t in range(H.shape[2])], axis=-1)
        x = norm(H + A, w[f"{p}.ffn.norm.gain"])
        gate = conv(x, f"{p}.ffn.w_gate")
        A = A + conv(gate * sigmoid(gate) * conv(x, f"{p}.ffn.w_in"), f"{p}.ffn.w_out")
        x = H
        for j, dil in enumerate(cfg.dilations(layer)):
            q = f"{p}.temporal{j}"
            u = np.stack([depthwise_conv_loops(x[:, b], w[f"{q}.dw.kernel"], dil)
                          for b in range(cfg.n_band)], axis=1)
            u = conv(norm(u + w[f"{q}.dw.bias"][:, None, None], w[f"{q}.norm.gain"]),
                     f"{q}.pw1")
            half = u.shape[0] // 2
            u = conv(u[:half] * sigmoid(u[half:]), f"{q}.pw2")
            x = x + w[f"{q}.gamma"][:, None, None] * u
        H = x + A
    rows = []
    for i in range(cfg.n_band):
        x = conv(norm(H[:, i], w[f"head.band{i}.norm.gain"]), f"head.band{i}.conv1")
        x = conv(x * sigmoid(x), f"head.band{i}.conv2")
        half = x.shape[0] // 2
        rows.append(x[:half] * sigmoid(x[half:]))
    return reassemble(rows, layout)


def test_forward_matches_unfolded_reference():
    """generator_forward, which folds the norm gains, 1/sqrt(d), the
    layer-scale gammas and the tanh-form 1/2 factors into the 1x1 convs, against
    the unfolded float64 definitions at the toy config, with random gains and
    biases and every gamma at 0.5: within 1e-5 of the output RMS."""
    cfg = toy_config()
    rng = np.random.default_rng(30)
    w = {}
    for name, arr in _gamma_weights(cfg, 31, 0.5).items():
        if name.endswith("norm.gain"):
            arr = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith(".bias"):
            arr = 0.1 * rng.standard_normal(arr.shape)
        w[name] = np.asarray(arr, dtype=np.float32)
    X = stft(_wave(30 * cfg.hop, seed=32, sr=cfg.sample_rate), cfg.stft_params)
    out = generator_forward(X, w, cfg).bins
    ref = _unfolded_forward(X, w, cfg)
    rms = np.sqrt(np.mean(np.abs(ref) ** 2))
    assert rms > 0
    assert np.max(np.abs(out - ref)) <= 1e-5 * rms


def test_identity_weight_construction_restores_input(monkeypatch):
    """A hand-built weight setting that routes the spectrogram through the
    network almost unchanged.

    With one band, a huge envelope floor and identity-like projections, the
    stem/head RMSNorm scales become (nearly) signal-independent constants
    that the head convolutions undo, so restore() approximates the identity
    map end to end.
    """
    s = 100.0
    monkeypatch.setattr(bandsplit, "ENVELOPE_EPS", s * s)
    cfg = ModelConfig(sample_rate=16000, n_fft=64, hop=32, n_band=1, N=68, L=1, heads=2)
    F = cfg.F                        # 33
    C = 2 * F + 1                    # 67 packed channels
    logs = np.log(s)
    r1 = np.sqrt(logs**2 / C + RMSNORM_DELTA)
    r2 = np.sqrt(logs**2 / (r1**2 * cfg.N) + RMSNORM_DELTA)
    k = s * r1 * r2
    bias = 20.0

    w = _zero_block_projections(init_weights(cfg, 0), cfg)
    proj = np.zeros((cfg.N, C))
    proj[:C, :] = np.eye(C)
    w["stem.band0.norm.gain"] = np.ones(C)
    w["stem.band0.proj.weight"] = proj
    w["stem.band0.proj.bias"] = np.zeros(cfg.N)
    w["head.band0.norm.gain"] = np.ones(cfg.N)
    w["head.band0.conv1.weight"] = np.eye(cfg.N)
    w["head.band0.conv1.bias"] = np.full(cfg.N, bias)
    conv2 = np.zeros((4 * F, cfg.N))
    conv2[np.arange(2 * F), np.arange(2 * F)] = k
    b2 = np.zeros(4 * F)
    b2[: 2 * F] = -bias * k
    b2[2 * F :] = 30.0               # gate half saturates open
    w["head.band0.conv2.weight"] = conv2
    w["head.band0.conv2.bias"] = b2
    w = {name: arr.astype(np.float32) for name, arr in w.items()}

    x = _wave(4000, seed=3, sr=16000, amp=0.02)
    out = restore(x, w, cfg)
    err = np.max(np.abs(out.samples - x.samples))
    assert err < 1e-2 * np.max(np.abs(x.samples))


def test_restore_packs_digital_silence_without_warning():
    """A take that starts in digital silence packs its silent frames as
    zeros and log(sqrt(ENVELOPE_EPS)): restore() raises no floating-point
    warning and gives finite output."""
    cfg = toy_config()
    x = np.concatenate([np.zeros(3000), _wave(3000, seed=6).samples])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = restore(Waveform(x, cfg.sample_rate), init_weights(cfg, 0), cfg)
    assert len(out) == len(x) and np.all(np.isfinite(out.samples))


def test_restore_sample_rate_check():
    cfg = toy_config()
    w = init_weights(cfg, 0)
    with pytest.raises(SampleRateError):
        restore(_wave(1000, sr=48000), w, cfg)


def test_restore_where_a_window_tail_covers_the_last_sample():
    """At the full config (n_fft 4096, hop 2048), 51199 samples leave the
    last sample in the far tail of the last frame's window (overlap 5.5e-12
    with 1 + n // hop frames); the STFT's extra frame gives every sample its
    full overlap, so restore() returns all of them."""
    cfg = ModelConfig()
    x = _wave(51199, seed=4, sr=cfg.sample_rate)
    assert cfg.stft_params.frames(len(x)) == 2 + len(x) // cfg.hop
    out = restore(x, init_weights(cfg, 0), cfg)
    assert len(out) == len(x) and np.all(np.isfinite(out.samples))


def _single_pass(x, w, cfg):
    """stft -> generator_forward over the whole spectrogram -> istft."""
    X = stft(x, StftParams(n_fft=cfg.n_fft, hop=cfg.hop))
    return istft(generator_forward(X, w, cfg), len(x), sample_rate=x.sample_rate)


def test_restore_chunks_match_single_pass(monkeypatch):
    """restore() in chunks, one carry threaded through every push, equals one
    forward pass over the whole input for 16-, 7- and 1-frame chunks (the
    last two shorter than some convs' look-ahead, so those emit nothing on
    some pushes); an input that fits one chunk gives the single pass bit for
    bit.

    In float32 the chunked GEMMs run at other column counts than the single
    pass and round differently. Over seeds 1-10 of this set-up the worst
    chunk size read 0.87e-6 to 1.44e-6 of the RMS, so the bound is 2e-6;
    a carry one frame short fails it by orders of magnitude. The float64
    form below carries the exactness claim."""
    cfg = toy_config()
    w = _gamma_weights(cfg, 1, 0.5)
    x = _wave(86 * cfg.hop + 37, seed=1, sr=cfg.sample_rate)    # 87 frames
    ref = _single_pass(x, w, cfg).samples
    for chunk in (16, 7, 1):
        monkeypatch.setattr(generator, "CHUNK_FRAMES", chunk)
        out = restore(x, w, cfg).samples
        assert np.max(np.abs(out - ref)) <= 2e-6 * np.sqrt(np.mean(ref**2)), chunk

    monkeypatch.setattr(generator, "CHUNK_FRAMES", 16)
    short = Waveform(x.samples[: 15 * cfg.hop], x.sample_rate)  # 16 frames
    assert np.array_equal(restore(short, w, cfg).samples, _single_pass(short, w, cfg).samples)


@pytest.mark.parametrize("seed, n_band", [(1, 8), (10, 8), (1, 1)],
                         ids=["1", "10", "1-n_band1"])
def test_restore_chunks_match_single_pass_float64(monkeypatch, seed, n_band):
    """The same check on float64 weights, so the forward runs in float64: the
    chunked output equals the single pass to rounding (1e-12 of the RMS), so
    the carry itself is exact; the float32 check's bound is the GEMMs
    rounding differently at other column counts. One band leaves every
    block's lower half without bands, and 1-frame chunks leave it without
    frames."""
    cfg = toy_config(n_band=n_band)
    w = {k: v.astype(np.float64) for k, v in _gamma_weights(cfg, seed, 0.5).items()}
    x = _wave(86 * cfg.hop + 37, seed=seed, sr=cfg.sample_rate)    # 87 frames
    ref = _single_pass(x, w, cfg).samples
    for chunk in (16, 7, 1):
        monkeypatch.setattr(generator, "CHUNK_FRAMES", chunk)
        out = restore(x, w, cfg).samples
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2)), chunk


def test_restore_writes_over_its_input_spectrogram(monkeypatch):
    """restore() writes each push's output frames over the input frames the
    forward has read and hands istft the spectrogram stft returned: no second
    (F, T) buffer is made."""
    cfg = toy_config()
    seen = {}

    def traced_stft(*args, **kwargs):
        seen["stft"] = stft(*args, **kwargs)
        return seen["stft"]

    def traced_istft(spec, *args, **kwargs):
        seen["istft"] = spec
        return istft(spec, *args, **kwargs)

    monkeypatch.setattr(generator, "stft", traced_stft)
    monkeypatch.setattr(generator, "istft", traced_istft)
    monkeypatch.setattr(generator, "CHUNK_FRAMES", 16)
    restore(_wave(40 * cfg.hop, seed=4, sr=cfg.sample_rate), _gamma_weights(cfg, 4, 0.5), cfg)
    assert np.shares_memory(seen["stft"].bins, seen["istft"].bins)


def _temporal_calls(monkeypatch, cfg, seed):
    """Runs restore() and records, per _temporal_path call, the block, its
    band count, its thread and the BLAS threads in effect."""
    calls = []

    def temporal(H, weights, config, prefix, *args):
        calls.append((prefix, H.shape[1], threading.get_ident(), blas.threads()))
        return real(H, weights, config, prefix, *args)

    real = generator._temporal_path
    monkeypatch.setattr(generator, "_temporal_path", temporal)
    restore(_wave(20 * cfg.hop, seed=seed, sr=cfg.sample_rate), init_weights(cfg, seed), cfg)
    return calls


def test_block_halves_run_on_two_threads(monkeypatch, blas_at):
    """With OpenBLAS at 2 threads, each block runs its temporal path as two
    band halves at once, one on the caller's thread and one on the worker,
    each with one BLAS thread; the count is 2 again after restore()."""
    cfg = toy_config()
    blas_at(2)
    calls = _temporal_calls(monkeypatch, cfg, 5)
    assert len(calls) == 2 * cfg.L
    for layer in range(cfg.L):
        mine = [c for c in calls if c[0] == f"block{layer}"]
        assert sorted(c[1] for c in mine) == [cfg.n_band // 2, cfg.n_band // 2]
        assert len({c[2] for c in mine}) == 2
    assert threading.get_ident() in {c[2] for c in calls}
    assert {c[3] for c in calls} == {1}
    assert blas.threads() == 2


@pytest.mark.parametrize("n", [1, 4])
def test_block_runs_whole_at_unmeasured_counts(monkeypatch, blas_at, n):
    """At a BLAS count other than 2, where the split was never measured, each
    block runs whole on the caller's thread with the count left as it is."""
    cfg = toy_config()
    blas_at(n)
    calls = _temporal_calls(monkeypatch, cfg, 5)
    assert [c[1] for c in calls] == [cfg.n_band] * cfg.L
    assert {c[2:] for c in calls} == {(threading.get_ident(), n)}
    assert blas.threads() == n


def test_restore_sets_blas_threads_back(monkeypatch, blas_at):
    """restore() leaves the BLAS thread count as it found it, both when it
    returns and when the worker's half raises mid-forward; the worker's
    ShapeError reaches the caller as it is."""
    blas_at(2)
    cfg = toy_config()
    w = init_weights(cfg, 6)
    x = _wave(20 * cfg.hop, seed=6, sr=cfg.sample_rate)
    restore(x, w, cfg)
    assert blas.threads() == 2

    caller = threading.get_ident()
    bad = dict(w)      # pw1 with one row too many: its GLU gets an odd channel count
    for name in ("block1.temporal0.pw1.weight", "block1.temporal0.pw1.bias"):
        bad[name] = np.concatenate([w[name], w[name][:1]])
    workers = []

    def temporal(H, weights, *args):
        if threading.get_ident() != caller:
            workers.append(threading.get_ident())
            weights = bad
        return real(H, weights, *args)

    real = generator._temporal_path
    monkeypatch.setattr(generator, "_temporal_path", temporal)
    with pytest.raises(ShapeError, match="even channel count"):
        restore(x, w, cfg)
    assert workers
    assert blas.threads() == 2


def _restore_shape(x, w, cfg, queue):
    queue.put(restore(x, w, cfg).samples.shape)


def test_restore_runs_in_a_forked_child(blas_at):
    """A child forked after restore() has run gets a worker of its own: the
    parent's worker thread does not exist in it, and waiting on it hangs."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    blas_at(2)
    cfg = toy_config()
    w = init_weights(cfg, 7)
    x = _wave(20 * cfg.hop, seed=7, sr=cfg.sample_rate)
    restore(x, w, cfg)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_restore_shape, args=(x, w, cfg, queue))
    child.start()
    try:
        assert queue.get(timeout=60) == x.samples.shape
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


def _blas_after_fork(queue):
    """In a forked child: the count, the count inside a halves body and in a
    task run on the worker it yields, then the count after the body."""
    found = blas.threads()
    with blas.halves() as worker:
        inside = blas.threads()
        on_worker = worker.submit(blas.threads).result(timeout=30)
    queue.put((found, inside, on_worker, blas.threads()))


@pytest.mark.parametrize("held", ["body", "lock"])
def test_fork_while_blas_is_shared(blas_at, held):
    """A child forked while another thread is inside a halves body, or
    holds its lock, starts with the count found before the body and can
    split, run a task on its own worker and set the count back: the lowered
    count, a held lock and the parent's worker thread do not pass into the
    child."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    blas_at(2)
    with blas.halves() as worker:
        worker.submit(int).result(timeout=60)    # the parent's worker thread now runs
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with blas.halves() if held == "body" else blas._lock:
            entered.set()
            leave.wait(timeout=60)

    holder = threading.Thread(target=hold)
    holder.start()
    entered.wait(timeout=60)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_blas_after_fork, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == (2, 1, 1, 2)
    finally:
        leave.set()
        holder.join(timeout=60)
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert blas.threads() == 2


def test_overlapping_blas_shares_set_the_count_back(blas_at):
    """halves bodies that overlap in several threads, as concurrent
    restore() calls make them, each get the one worker and set the BLAS
    thread count back to the one found before the first began; a per-body
    save and restore loses it."""
    blas_at(2)
    workers_seen = []

    def enter_and_leave():
        for _ in range(500):
            with blas.halves() as worker:
                workers_seen.append(worker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(workers_seen) == 2000 and all(w is blas._worker for w in workers_seen)
    assert blas.threads() == 2


def test_concurrent_restores_match_serial(monkeypatch, blas_at):
    """Two restore() calls at once in two threads share the one worker:
    each output is bitwise the one its call gives alone, and the BLAS
    count is 2 again after."""
    blas_at(2)
    monkeypatch.setattr(generator, "CHUNK_FRAMES", 16)   # several pushes each
    cfg = toy_config()
    w = _gamma_weights(cfg, 8, 0.5)
    xs = [_wave(n * cfg.hop, seed=n, sr=cfg.sample_rate) for n in (40, 57)]
    serial = [restore(x, w, cfg).samples for x in xs]
    for _ in range(5):
        got = [None, None]

        def run(i):
            got[i] = restore(xs[i], w, cfg).samples

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        for mine, alone in zip(got, serial):
            assert mine is not None and np.array_equal(mine, alone)
    assert blas.threads() == 2


def test_forward_carry_keeps_boundary_frames():
    """Pushed in chunks, generator_forward emits each frame once, R =
    receptive_field frames behind its input until the last push flushes the
    rest. The carry holds one entry per block: each conv's past, which
    keeps dilation * (k - 1) = 2a input frames once R frames have passed,
    then the attention frames the block's temporal path has yet to emit.
    Pushes of 7 and 1 frames are shorter than some convs' reach, so those
    emit nothing on some pushes."""
    cfg = toy_config()
    w = _gamma_weights(cfg, 2, 0.5)
    R = receptive_field(cfg)
    X = stft(_wave(86 * cfg.hop, seed=3, sr=cfg.sample_rate), cfg.stft_params)  # 87 frames
    for chunk in (16, 7, 1):
        carry, emitted = [], 0
        for start in range(0, X.n_frames, chunk):
            seen = min(start + chunk, X.n_frames)
            last = seen == X.n_frames
            pushed = ComplexSpectrogram(X.bins[:, start:seen], X.params)
            emitted += generator_forward(pushed, w, cfg, carry, last).n_frames
            assert emitted == (seen if last else max(seen - R, 0)), (chunk, start)
            assert len(carry) == cfg.L
            if seen >= R and not last:
                for layer, state in enumerate(carry):
                    reach = cfg.reaches(layer)
                    assert [past.shape[-1] for past in state[:-1]] == [2 * a for a in reach]
                    assert state[-1].shape[-1] == sum(reach)
