"""End-to-end band-split generator: stem, band-sequence blocks, synthesis
heads, reassembly, plus weight init/serialization and waveform restoration.

The network runs in float32 (deployment precision) from the stem to the
synthesis heads; the STFT, band packing and reassembly stay in float64. All
operations are deterministic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .audio_io import Waveform
from .bandsplit import BandLayout, mel_band_layout, pack_band_features, reassemble
from .errors import FormatError, ManifestError, SampleRateError, ShapeError
from .spectral import ComplexSpectrogram, StftParams, istft, stft
from .nncore import (
    attention_core,
    depthwise_conv1d,
    glu,
    pointwise_conv,
    rmsnorm,
    rope,
    silu,
)

WEIGHT_MAGIC = b"SRSW0001"
LAYER_SCALE_INIT = 1e-6
CONVNEXT_BLOCKS_PER_LAYER = 3  # dilations {1, d, 1}
# Core frames per restore() tile: with both R = 50 halos a tile spans 700
# frames, so memory is bounded for any length.
TILE_FRAMES = 600


@dataclass(frozen=True)
class ModelConfig:
    sample_rate: int = 48000
    n_fft: int = 4096
    hop: int = 2048
    n_band: int = 64
    N: int = 128
    L: int = 6
    heads: int = 4
    conv_kernel: int = 3
    dilation_cap: int = 8
    ff_expansion: int = 2
    eps: float = 1e-8

    def __post_init__(self):
        F = self.F   # builds stft_params: rejects an odd n_fft or hop > n_fft
        if not (1 <= self.n_band <= F):
            raise ShapeError(f"need 1 <= n_band <= F={F}, got {self.n_band}")
        if min(self.N, self.heads, self.L, self.dilation_cap) < 1:
            raise ShapeError(f"N, heads, L and dilation_cap must be >= 1, got "
                             f"{self.N}, {self.heads}, {self.L}, {self.dilation_cap}")
        if self.N % self.heads:
            raise ShapeError(f"N={self.N} not divisible by heads={self.heads}")

    @property
    def stft_params(self) -> StftParams:
        """The model's analysis grid."""
        return StftParams(n_fft=self.n_fft, hop=self.hop)

    @property
    def F(self) -> int:
        return self.stft_params.n_bins

    def layout(self) -> BandLayout:
        return mel_band_layout(self.F, self.n_band, self.sample_rate)

    def dilations(self, layer_index: int) -> tuple:
        d = min(2 ** (layer_index + 1), self.dilation_cap)
        return (1, d, 1)

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in asdict(self).items())

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in cls.__dataclass_fields__:
                raise FormatError(f"unknown config key {key!r}")
            try:
                kwargs[key] = float(value) if key == "eps" else int(value)
            except ValueError as exc:
                raise FormatError(f"config key {key!r}: bad value {value!r}") from exc
        return cls(**kwargs)


def toy_config(**overrides) -> ModelConfig:
    base = dict(
        sample_rate=16000, n_fft=256, hop=128, n_band=8, N=16, L=2, heads=2
    )
    base.update(overrides)
    return ModelConfig(**base)


def parameter_manifest(config: ModelConfig) -> dict:
    """Ordered map of parameter name -> shape implied by the config."""
    layout = config.layout()
    N, ff = config.N, config.ff_expansion
    manifest: dict[str, tuple] = {}

    for i, bw in enumerate(layout.widths):
        c = 2 * bw + 1
        manifest[f"stem.band{i}.norm.gain"] = (c,)
        manifest[f"stem.band{i}.proj.weight"] = (N, c)
        manifest[f"stem.band{i}.proj.bias"] = (N,)

    for layer in range(config.L):
        p = f"block{layer}"
        manifest[f"{p}.attn.norm.gain"] = (N,)
        for name in ("q", "k", "v", "out"):
            manifest[f"{p}.attn.{name}.weight"] = (N, N)
            manifest[f"{p}.attn.{name}.bias"] = (N,)
        manifest[f"{p}.ffn.norm.gain"] = (N,)
        manifest[f"{p}.ffn.w_in.weight"] = (ff * N, N)
        manifest[f"{p}.ffn.w_in.bias"] = (ff * N,)
        manifest[f"{p}.ffn.w_gate.weight"] = (ff * N, N)
        manifest[f"{p}.ffn.w_gate.bias"] = (ff * N,)
        manifest[f"{p}.ffn.w_out.weight"] = (N, ff * N)
        manifest[f"{p}.ffn.w_out.bias"] = (N,)
        for j in range(CONVNEXT_BLOCKS_PER_LAYER):
            q = f"{p}.temporal{j}"
            manifest[f"{q}.dw.kernel"] = (N, config.conv_kernel)
            manifest[f"{q}.dw.bias"] = (N,)
            manifest[f"{q}.norm.gain"] = (N,)
            manifest[f"{q}.pw1.weight"] = (2 * ff * N, N)
            manifest[f"{q}.pw1.bias"] = (2 * ff * N,)
            manifest[f"{q}.pw2.weight"] = (N, ff * N)
            manifest[f"{q}.pw2.bias"] = (N,)
            manifest[f"{q}.gamma"] = (N,)

    for i, bw in enumerate(layout.widths):
        manifest[f"head.band{i}.norm.gain"] = (N,)
        manifest[f"head.band{i}.conv1.weight"] = (N, N)
        manifest[f"head.band{i}.conv1.bias"] = (N,)
        manifest[f"head.band{i}.conv2.weight"] = (4 * bw, N)
        manifest[f"head.band{i}.conv2.bias"] = (4 * bw,)
    return manifest


def init_weights(config: ModelConfig, seed: int) -> dict:
    """Deterministic init: projections/convs uniform +-sqrt(1/fan_in),
    norm gains 1, biases 0, layer-scale gammas 1e-6. float32 storage."""
    rng = np.random.Generator(np.random.Philox(seed))
    store: dict[str, np.ndarray] = {}
    for name, shape in parameter_manifest(config).items():
        if name.endswith("norm.gain"):
            arr = np.ones(shape)
        elif name.endswith(".gamma"):
            arr = np.full(shape, LAYER_SCALE_INIT)
        elif name.endswith(".bias"):
            arr = np.zeros(shape)
        else:
            fan_in = shape[-1]
            bound = np.sqrt(1.0 / fan_in)
            arr = rng.uniform(-bound, bound, size=shape)
        store[name] = arr.astype(np.float32)
    return store


def check_weights(store: dict, config: ModelConfig) -> None:
    manifest = parameter_manifest(config)
    missing = sorted(set(manifest) - set(store))
    extra = sorted(set(store) - set(manifest))
    if missing or extra:
        raise ManifestError(f"missing={missing[:5]} extra={extra[:5]}")
    for name, shape in manifest.items():
        if tuple(store[name].shape) != tuple(shape):
            raise ShapeError(
                f"{name}: expected shape {shape}, got {store[name].shape}"
            )
        if not np.all(np.isfinite(store[name])):
            raise ShapeError(f"{name}: non-finite values")


def save_weights(store: dict, path) -> None:
    """Binary format: magic, u32-length-prefixed JSON manifest, f32 LE payload."""
    entries = []
    offset = 0
    blobs = []
    for name in store:
        arr = np.ascontiguousarray(store[name], dtype="<f4")
        entries.append(
            {"name": name, "shape": list(arr.shape), "dtype": "f32", "offset": offset}
        )
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    manifest = json.dumps(entries).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)


def load_weights(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != WEIGHT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(4)
        if len(header) != 4:
            raise FormatError(f"{path}: file ends before the manifest length")
        (mlen,) = struct.unpack("<I", header)
        try:
            entries = json.loads(fh.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt manifest: {exc}") from exc
        payload = fh.read()
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest is a JSON {type(entries).__name__}, not a list")
    store = {}
    for e in entries:
        try:
            name, shape, offset = e["name"], tuple(int(n) for n in e["shape"]), int(e["offset"])
            if not isinstance(name, str):
                raise TypeError(f"name {name!r} is not a string")
            if offset < 0:
                raise ValueError(f"offset {offset} is negative")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed manifest entry {e!r}: {exc!r}") from exc
        n = int(np.prod(shape))
        raw = payload[offset:offset + 4 * n]
        if len(raw) != 4 * n:
            raise ManifestError(f"{path}: truncated payload for {name}")
        store[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return store


# ---------------------------------------------------------------------------
# Forward path
# ---------------------------------------------------------------------------


def stem(packed: list[np.ndarray], weights: dict, config: ModelConfig) -> np.ndarray:
    """Per-band RMSNorm + 1x1 projection to the shared width N.

    Returns H0 of shape (N, n_band, T_s), the one layout the block stack and
    the heads use.
    """
    if len(packed) != config.n_band:
        raise ShapeError(f"expected {config.n_band} bands, got {len(packed)}")
    T = packed[0].shape[1]
    H = np.empty((config.N, config.n_band, T), dtype=packed[0].dtype)
    for i, feats in enumerate(packed):
        p = f"stem.band{i}"
        x = rmsnorm(feats, weights[f"{p}.norm.gain"])
        H[:, i] = pointwise_conv(x, weights[f"{p}.proj.weight"], weights[f"{p}.proj.bias"])
    return H


def _attention_path(H: np.ndarray, weights: dict, config: ModelConfig, prefix: str):
    """Cross-band attention + SwiGLU feedforward: returns the attention
    output plus the feedforward output, which reads rmsnorm(H + attention).

    H: (N, n_band, T). Attention runs along the band axis independently per
    frame; RoPE on queries/keys is keyed by band index.
    """
    N, nb, T = H.shape
    heads, d = config.heads, N // config.heads
    w = weights

    x = rmsnorm(H, w[f"{prefix}.attn.norm.gain"])

    def proj(name):
        y = pointwise_conv(x, w[f"{prefix}.attn.{name}.weight"], w[f"{prefix}.attn.{name}.bias"])
        # (N, nb, T) -> (T, heads, nb, d): sequence axis is the band axis
        return y.reshape(heads, d, nb, T).transpose(3, 0, 2, 1)

    q, k, v = proj("q"), proj("k"), proj("v")
    pos = np.arange(nb)
    q = rope(q, pos)
    k = rope(k, pos)
    out = attention_core(q, k, v)                       # (T, heads, nb, d)
    out = out.transpose(1, 3, 2, 0).reshape(N, nb, T)
    out = pointwise_conv(out, w[f"{prefix}.attn.out.weight"], w[f"{prefix}.attn.out.bias"])

    x = rmsnorm(H + out, w[f"{prefix}.ffn.norm.gain"])
    hidden = silu(
        pointwise_conv(x, w[f"{prefix}.ffn.w_gate.weight"], w[f"{prefix}.ffn.w_gate.bias"])
    ) * pointwise_conv(x, w[f"{prefix}.ffn.w_in.weight"], w[f"{prefix}.ffn.w_in.bias"])
    out += pointwise_conv(hidden, w[f"{prefix}.ffn.w_out.weight"], w[f"{prefix}.ffn.w_out.bias"])
    return out


def _temporal_path(H, weights, config: ModelConfig, prefix: str, layer_index: int):
    """Stack of dilated depthwise ConvNeXT blocks over time, weights shared
    across bands; returns H after their three residual updates."""
    x = H
    w = weights
    for j, dil in enumerate(config.dilations(layer_index)):
        q = f"{prefix}.temporal{j}"
        u = depthwise_conv1d(x, w[f"{q}.dw.kernel"], dilation=dil)
        u += w[f"{q}.dw.bias"][:, None, None]
        u = rmsnorm(u, w[f"{q}.norm.gain"])
        u = pointwise_conv(u, w[f"{q}.pw1.weight"], w[f"{q}.pw1.bias"])
        u = glu(u)
        u = pointwise_conv(u, w[f"{q}.pw2.weight"], w[f"{q}.pw2.bias"])
        x = x + u * w[f"{q}.gamma"][:, None, None]
    return x


def band_sequence_block(
    H: np.ndarray, weights: dict, config: ModelConfig, layer_index: int
) -> np.ndarray:
    """One band-sequence block: cross-band attention pathway plus within-band
    temporal pathway, both read from the block input H: (N, n_band, T). The
    temporal stream carries H; the attention pathway's output adds onto it."""
    if H.shape[:2] != (config.N, config.n_band):
        raise ShapeError(f"expected ({config.N}, {config.n_band}, T), got {H.shape}")
    prefix = f"block{layer_index}"
    # attention first: the temporal path, which peaks lower, holds its output
    attention = _attention_path(H, weights, config, prefix)
    return _temporal_path(H, weights, config, prefix, layer_index) + attention


def synthesis_head(H_i: np.ndarray, weights: dict, band_index: int, bw: int):
    """RMSNorm -> 1x1 conv -> SiLU -> 1x1 conv -> GLU on one band's (N, T)
    slice: (2*bw, T) rows in the re/im order that reassemble reads."""
    p = f"head.band{band_index}"
    x = rmsnorm(H_i, weights[f"{p}.norm.gain"])
    x = pointwise_conv(x, weights[f"{p}.conv1.weight"], weights[f"{p}.conv1.bias"])
    x = silu(x)
    x = pointwise_conv(x, weights[f"{p}.conv2.weight"], weights[f"{p}.conv2.bias"])
    if x.shape[0] != 4 * bw:
        raise ShapeError(f"head {band_index}: pre-GLU channels {x.shape[0]} != {4 * bw}")
    return glu(x)


def generator_forward(
    X: ComplexSpectrogram, weights: dict, config: ModelConfig
) -> ComplexSpectrogram:
    """Full generator pipeline on a complex spectrogram of matching F."""
    if X.bins.shape[0] != config.F:
        raise ShapeError(f"expected F={config.F}, got {X.bins.shape[0]}")
    layout = config.layout()
    packed = [p.astype(np.float32) for p in pack_band_features(X, layout, config.eps)]
    w32 = {k: np.asarray(v, dtype=np.float32) for k, v in weights.items()}

    H = stem(packed, w32, config)
    for layer in range(config.L):
        H = band_sequence_block(H, w32, config, layer)

    rows = [synthesis_head(H[:, i], w32, i, bw) for i, bw in enumerate(layout.widths)]
    return ComplexSpectrogram(reassemble(rows, layout), X.params)


def receptive_field(config: ModelConfig) -> int:
    """Frames R on each side that an output frame of generator_forward reads:
    the dilated depthwise convs are the only layers that mix frames."""
    return sum(d * (config.conv_kernel - 1) // 2
               for layer in range(config.L) for d in config.dilations(layer))


def tile_plan(n_samples: int, config: ModelConfig) -> list[tuple[int, int, int, int]]:
    """restore()'s frame tiles for n_samples: (lo, start, stop, hi) per tile,
    whose core frames [start, stop) are computed from input frames [lo, hi),
    the core plus an R-frame halo on each side clipped at the signal ends."""
    n = config.stft_params.frames(n_samples)
    R = receptive_field(config)
    return [
        (max(s - R, 0), s, min(s + TILE_FRAMES, n), min(s + TILE_FRAMES + R, n))
        for s in range(0, n, TILE_FRAMES)
    ]


def restore(wave: Waveform, weights: dict, config: ModelConfig) -> Waveform:
    """Waveform-to-waveform restoration: one stft, generator_forward on each
    tile of tile_plan, one istft of the tile cores. Each core sees every frame
    it depends on, so the output equals one forward pass for any length."""
    if wave.sample_rate != config.sample_rate:
        raise SampleRateError(
            f"waveform is {wave.sample_rate} Hz, model expects {config.sample_rate}"
        )
    X = stft(wave, config.stft_params)
    cores = []
    for lo, start, stop, hi in tile_plan(len(wave), config):
        Y = generator_forward(ComplexSpectrogram(X.bins[:, lo:hi], X.params), weights, config)
        cores.append(Y.bins[:, start - lo:stop - lo])
    Xhat = ComplexSpectrogram(np.concatenate(cores, axis=1), X.params)
    return istft(Xhat, len(wave), sample_rate=wave.sample_rate)
