"""End-to-end band-split generator: stem, band-sequence blocks, synthesis
heads, reassembly, plus weight init/serialization and waveform restoration.

The network runs in the weights' dtype (float32 as stored) from the stem to
the synthesis heads. The STFT and band packing stay in float64; reassembly
follows the heads' rows, and ComplexSpectrogram makes its bins complex128.
All operations are deterministic. Where OpenBLAS runs 2 threads, each block
runs as two halves, one on the caller's thread and one on the worker that
blas.halves() hands out (see band_sequence_block); the module itself keeps
no threads and no state between calls.

The stage functions take the weights as stored. The per-channel factors that
sit next to a 1x1 conv are folded into that conv where it is used, so no
kernel applies them as a separate pass:
- every RMSNorm gain into the columns of the conv that reads the norm (stem,
  the attention and feedforward norms in _attention_path, the temporal norms
  in _temporal_path, the head norms in synthesis_head);
- 1/sqrt(d) into Wq and bq (_attention_path);
- each layer-scale gamma into pw2's rows and bias (_temporal_path);
- the 1/2 factors of sigmoid(z) = (1 + tanh(z/2)) / 2 into the rows that feed
  the tanh-form silu (W_gate, head conv1) and glu (pw1 and head conv2, value
  and gate halves alike).
Each folded copy lives only while its stage runs; no prepared copy of the
whole model is kept.
"""

from __future__ import annotations

import json
import struct
from concurrent import futures
from dataclasses import dataclass, asdict, fields
from typing import ClassVar

import numpy as np

from . import blas
from .audio_io import Waveform
from .bandsplit import BandLayout, mel_band_layout, pack_band_features, reassemble
from .errors import ConfigError, FormatError, SampleRateError, ShapeError
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
# Frames per restore() push: the block stack never holds more than one
# chunk plus its carries, whatever the length.
CHUNK_FRAMES = 128


@dataclass(frozen=True)
class ModelConfig:
    sample_rate: int = 48000
    n_fft: int = 4096
    hop: int = 2048
    n_band: int = 64
    N: int = 128
    L: int = 6
    heads: int = 4
    # Fixed by the architecture, not set by a .cfg: class constants, not
    # fields, still read as config.conv_kernel (perfbench's FLOP count does).
    conv_kernel: ClassVar[int] = 3
    dilation_cap: ClassVar[int] = 8
    ff_expansion: ClassVar[int] = 2

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")
        F = self.F   # builds stft_params: rejects an odd n_fft or hop > n_fft
        if not (1 <= self.n_band <= F):
            raise ShapeError(f"need 1 <= n_band <= F={F}, got {self.n_band}")
        if min(self.N, self.heads, self.L) < 1:
            raise ConfigError(f"N, heads and L must be >= 1, got "
                              f"{self.N}, {self.heads}, {self.L}")
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

    def reaches(self, layer_index: int) -> tuple:
        """Each temporal conv's reach a = dilation * (k - 1) / 2: the frames
        it reads on each side of its centre, and so its lag in a stream."""
        return tuple(d * (self.conv_kernel - 1) // 2 for d in self.dilations(layer_index))

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in asdict(self).items())

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        names = {f.name for f in fields(cls)}
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in names:
                raise FormatError(f"unknown config key {key!r}")
            if key in kwargs:
                raise FormatError(f"config key {key!r} is listed twice")
            try:
                kwargs[key] = int(value)
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
        raise ShapeError(f"missing={missing[:5]} extra={extra[:5]}")
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
            if e["dtype"] != "f32":
                raise ValueError(f"dtype {e['dtype']!r} is not 'f32'")
            if offset < 0:
                raise ValueError(f"offset {offset} is negative")
            if min(shape, default=0) < 0:
                raise ValueError(f"shape {list(shape)} has a negative entry")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed manifest entry {e!r}: {exc!r}") from exc
        if name in store:
            raise FormatError(f"{path}: manifest lists {name!r} twice, again in entry {e!r}")
        n = int(np.prod(shape))
        raw = payload[offset:offset + 4 * n]
        if len(raw) != 4 * n:
            raise FormatError(f"{path}: truncated payload for {name}")
        store[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return store


# ---------------------------------------------------------------------------
# Forward path
# ---------------------------------------------------------------------------


def stem(packed: list[np.ndarray], weights: dict, config: ModelConfig) -> np.ndarray:
    """Per-band RMSNorm + 1x1 projection to the shared width N, the norm gain
    folded into the projection's columns.

    Returns H0 of shape (N, n_band, T_s), the one layout the block stack and
    the heads use.
    """
    if len(packed) != config.n_band:
        raise ShapeError(f"expected {config.n_band} bands, got {len(packed)}")
    T = packed[0].shape[1]
    H = np.empty((config.N, config.n_band, T), dtype=packed[0].dtype)
    for i, feats in enumerate(packed):
        p = f"stem.band{i}"
        H[:, i] = pointwise_conv(rmsnorm(feats),
                                 weights[f"{p}.proj.weight"] * weights[f"{p}.norm.gain"],
                                 weights[f"{p}.proj.bias"])
    return H


def _attention_path(H: np.ndarray, weights: dict, config: ModelConfig, prefix: str):
    """Cross-band attention + SwiGLU feedforward: returns the attention
    output plus the feedforward output, which reads rmsnorm(H + attention).

    H: (N, n_band, T). Attention runs along the band axis independently per
    frame; RoPE on queries/keys is keyed by band index. Folds: the attention
    norm gain into the columns of Wq, Wk and Wv, 1/sqrt(d) into Wq and bq,
    the feedforward norm gain into the columns of W_gate and W_in, and the
    1/2 of the tanh-form SiLU into W_gate and its bias.
    """
    N, nb, T = H.shape
    heads, d = config.heads, N // config.heads
    p = f"{prefix}.attn"
    w = weights

    # (nb*T, N) rows, one per (band, frame): each projection x @ W.T is then
    # a (nb, T, heads, d) buffer, and its (T, heads, nb, d) view, which
    # attention batches over, keeps d at unit stride.
    x = rmsnorm(H).reshape(N, nb * T).T
    gain = w[f"{p}.norm.gain"]

    def project(name, scale):
        y = x @ (w[f"{p}.{name}.weight"] * (gain * scale)).T
        y += w[f"{p}.{name}.bias"] * scale
        return y.reshape(nb, T, heads, d).transpose(1, 2, 0, 3)

    q = rope(project("q", d ** -0.5))
    k = rope(project("k", 1.0))
    v = project("v", 1.0)
    del x               # the scores take its room
    o = attention_core(q, k, v)
    del q, k, v         # and the feedforward holds none of the attention buffers
    o = o.transpose(2, 0, 1, 3).reshape(nb * T, N)   # a view: o is (nb, T, heads, d) in memory
    out = pointwise_conv(o.T.reshape(N, nb, T), w[f"{p}.out.weight"], w[f"{p}.out.bias"])
    del o

    p = f"{prefix}.ffn"
    gain = w[f"{p}.norm.gain"]
    x = rmsnorm(H + out)
    hidden = silu(pointwise_conv(x, w[f"{p}.w_gate.weight"] * (gain * 0.5),
                                 w[f"{p}.w_gate.bias"] * 0.5))
    hidden *= pointwise_conv(x, w[f"{p}.w_in.weight"] * gain, w[f"{p}.w_in.bias"])
    out += pointwise_conv(hidden, w[f"{p}.w_out.weight"], w[f"{p}.w_out.bias"])
    return out


def _add_frames(out, past, x, start: int) -> None:
    """out += (past ++ x)[..., start:start + T] along time, slice by slice,
    for T = out.shape[-1]."""
    P = past.shape[-1]
    T = out.shape[-1]
    if start < P:
        out[..., :P - start] += past[..., start:start + T]
    lo = max(P - start, 0)
    if lo < T:
        out[..., lo:] += x[..., lo + start - P:T + start - P]


def _frames_from(past, x, start: int) -> np.ndarray:
    """A copy of (past ++ x)[..., start:] along time: the few boundary frames
    a carry keeps, never a view that would hold the whole chunk."""
    P = past.shape[-1]
    if start >= P:
        return x[..., start - P:].copy()
    return np.concatenate([past[..., start:], x], axis=-1)


def _temporal_path(H, weights, config: ModelConfig, prefix: str, layer_index: int,
                   pasts: list, last: bool):
    """Stack of dilated depthwise ConvNeXT blocks over time, weights shared
    across bands; returns the frames of H after their three residual updates
    that this push completes. Folds: the norm gain and the 1/2 of the
    tanh-form GLU (value and gate rows alike) into pw1, the layer-scale gamma
    into pw2's rows and bias.

    pasts[j] holds the input frames before H that conv j still reads, at
    least its reach a (see generator_forward); the conv replaces it with
    the ones its next push reads, 2a once a frames have passed. Its outputs
    trail its input by a frames until the last push, so the residual adds
    the input frames from a on of the past and the chunk.
    """
    x = H
    w = weights
    for j, (dil, a) in enumerate(zip(config.dilations(layer_index), config.reaches(layer_index))):
        q = f"{prefix}.temporal{j}"
        past = pasts[j]
        gamma = w[f"{q}.gamma"]
        # each step rebinds u, so its input is freed before the next kernel runs
        u = depthwise_conv1d(x, w[f"{q}.dw.kernel"], dil, past, last)
        u += w[f"{q}.dw.bias"][:, None, None]
        u = rmsnorm(u)
        u = pointwise_conv(u, w[f"{q}.pw1.weight"] * (w[f"{q}.norm.gain"] * 0.5),
                           w[f"{q}.pw1.bias"] * 0.5)
        u = glu(u)
        u = pointwise_conv(u, w[f"{q}.pw2.weight"] * gamma[:, None], w[f"{q}.pw2.bias"] * gamma)
        _add_frames(u, past, x, a)
        pasts[j] = _frames_from(past, x, u.shape[-1])
        x = u
    return x


def _fresh_block_carry(config: ModelConfig, layer_index: int, dtype) -> list:
    """One block's stream state before its first push: each temporal conv's
    past, its reach a in frames of zeros (the padding before the signal),
    then the block's held attention frames, none yet."""
    return [np.zeros((config.N, config.n_band, a), dtype)
            for a in (*config.reaches(layer_index), 0)]


def _half(H, weights, config: ModelConfig, layer_index: int, carry: list, last: bool,
          bands: slice, frames: slice, out: np.ndarray, attention: np.ndarray) -> list:
    """One half of a block: the temporal path on a band range of H and the
    attention path on a frame range of H. The temporal path never mixes
    bands and the attention path never mixes frames, so two halves with
    complementary ranges compute the whole block with the same arithmetic.

    Reads only H, the weights and its bands of the block carry's conv
    pasts; writes its temporal output into out[:, bands] and its attention
    output into attention[..., frames], slices no other half touches.
    Returns the new conv pasts of its bands.
    """
    prefix = f"block{layer_index}"
    pasts = [past[:, bands] for past in carry[:-1]]
    out[:, bands] = _temporal_path(H[:, bands], weights, config, prefix, layer_index, pasts, last)
    attention[..., frames] = _attention_path(H[..., frames], weights, config, prefix)
    return pasts


def band_sequence_block(
    H: np.ndarray, weights: dict, config: ModelConfig, layer_index: int,
    carry: list | None = None, last: bool = True,
) -> np.ndarray:
    """One band-sequence block: cross-band attention pathway plus within-band
    temporal pathway, both read from the block input H: (N, n_band, T). The
    temporal stream carries H; the attention pathway's output adds onto it.
    Takes the raw weights; each pathway folds its own slice at use.

    Where blas.halves() hands out its worker (OpenBLAS at 2 threads, the
    only count measured), the block runs as two halves (see _half) with one
    BLAS thread each: the lower bands and frames on the caller's thread, the
    upper ones submitted to that worker, joined once both are done. Either
    half may be empty (one band, or fewer than two frames). At any other
    count it runs as one half on the caller's thread.

    carry is this block's entry of generator_forward's carry (none: a
    fresh one), updated in place. Its held attention frames are those not
    yet emitted, so each lands on its own frame: of held + T, the block
    emits all on the last push, else all but the sum of its reaches.
    """
    if H.shape[:2] != (config.N, config.n_band):
        raise ShapeError(f"expected ({config.N}, {config.n_band}, T), got {H.shape}")
    if carry is None:
        carry = _fresh_block_carry(config, layer_index, H.dtype)
    N, nb, T = H.shape
    held = carry[-1]
    lag = 0 if last else sum(config.reaches(layer_index))
    out = np.empty((N, nb, max(held.shape[-1] + T - lag, 0)), H.dtype)
    attention = np.empty_like(H)
    args = (H, weights, config, layer_index, carry, last)
    with blas.halves() as worker:
        if worker is not None:
            upper = worker.submit(_half, *args, slice(nb // 2, nb), slice(T // 2, T),
                                  out, attention)
            try:
                lower = _half(*args, slice(0, nb // 2), slice(0, T // 2), out, attention)
            finally:
                futures.wait([upper])   # never return or raise while the worker runs
            halves = (lower, upper.result())
        else:
            halves = (_half(*args, slice(None), slice(None), out, attention),)
    carry[:-1] = [np.concatenate(pasts, axis=1) for pasts in zip(*halves)]
    _add_frames(out, held, attention, 0)
    carry[-1] = _frames_from(held, attention, out.shape[-1])
    return out


def synthesis_head(H_i: np.ndarray, weights: dict, band_index: int):
    """RMSNorm -> 1x1 conv -> SiLU -> 1x1 conv -> GLU on one band's (N, T)
    slice: (2*bw, T) rows, bw set by conv2's 4*bw rows, in the re/im order
    that reassemble reads and checks. Folds: the norm gain and the 1/2 of
    the tanh-form SiLU into conv1, the 1/2 of the tanh-form GLU into conv2."""
    p = f"head.band{band_index}"
    x = rmsnorm(H_i)
    x = pointwise_conv(x, weights[f"{p}.conv1.weight"] * (weights[f"{p}.norm.gain"] * 0.5),
                       weights[f"{p}.conv1.bias"] * 0.5)
    x = silu(x)
    x = pointwise_conv(x, weights[f"{p}.conv2.weight"] * 0.5, weights[f"{p}.conv2.bias"] * 0.5)
    return glu(x).copy()    # glu's result is a view that would keep all 4*bw rows


def generator_forward(
    X: ComplexSpectrogram, weights: dict, config: ModelConfig,
    carry: list | None = None, last: bool = True,
) -> ComplexSpectrogram:
    """Full generator pipeline on a complex spectrogram of matching F.

    Takes the raw weights as stored and runs in their dtype (float32 as
    load_weights and init_weights return them; float64 weights give a
    float64 forward); each stage folds its own slice where it uses it (see
    the module docstring). X is packed in float64 and cast to that dtype;
    the heads' rows are reassembled in it, and the result is complex128.

    X may be one chunk of a longer spectrogram, pushed in order, and last
    marks the final chunk. carry is the stream's state, a list that is
    empty before the first push, which fills it (see _fresh_block_carry):
    per block, each depthwise conv's past (the input frames it still
    reads), then the attention frames the block has yet to emit. The result
    holds the output frames this push completes, which follow those of the
    previous push: they lag X by up to receptive_field(config) frames, and
    the last push emits the rest. A whole spectrogram is one push with no
    carry that is also the last, and gives X's frame count.
    """
    if X.bins.shape[0] != config.F:
        raise ShapeError(f"expected F={config.F}, got {X.bins.shape[0]}")
    layout = config.layout()
    dtype = weights["stem.band0.proj.weight"].dtype
    packed = [p.astype(dtype) for p in pack_band_features(X, layout)]
    carry = [] if carry is None else carry
    if not carry:
        carry += [_fresh_block_carry(config, layer, dtype) for layer in range(config.L)]

    # one split for the whole network, so the stem and heads run on one BLAS
    # thread too and the blocks' own halves() makes no BLAS call: faster
    # than switching the count around each block (perfbench restore_long,
    # 2 vCPUs)
    with blas.halves():
        H = stem(packed, weights, config)
        del packed
        for layer in range(config.L):
            H = band_sequence_block(H, weights, config, layer, carry[layer], last)
        rows = [synthesis_head(H[:, i], weights, i) for i in range(config.n_band)]
    return ComplexSpectrogram(reassemble(rows, layout), X.params)


def receptive_field(config: ModelConfig) -> int:
    """Frames R on each side that an output frame of generator_forward reads:
    the dilated depthwise convs are the only layers that mix frames. It is
    also the stack's latency: a pushed frame's output is complete R frames
    later."""
    return sum(sum(config.reaches(layer)) for layer in range(config.L))


def chunk_starts(n_frames: int) -> range:
    """First frame of each push restore() makes over n_frames frames."""
    return range(0, n_frames, CHUNK_FRAMES)


def restore(wave: Waveform, weights: dict, config: ModelConfig) -> Waveform:
    """Waveform-to-waveform restoration: one stft, generator_forward on each
    CHUNK_FRAMES chunk with one carry threaded through, each push's frames
    written over the input frames the forward has read, one istft. The carry
    gives every frame all the frames it reads, so the output equals one
    forward pass for any length, and memory is bounded by the chunk."""
    if wave.sample_rate != config.sample_rate:
        raise SampleRateError(
            f"waveform is {wave.sample_rate} Hz, model expects {config.sample_rate}"
        )
    X = stft(wave, config.stft_params)
    carry: list = []
    done = 0
    for start in chunk_starts(X.n_frames):
        chunk = ComplexSpectrogram(X.bins[:, start:start + CHUNK_FRAMES], X.params)
        Y = generator_forward(chunk, weights, config, carry, start + CHUNK_FRAMES >= X.n_frames)
        X.bins[:, done:done + Y.n_frames] = Y.bins
        done += Y.n_frames
    return istft(X, len(wave), sample_rate=wave.sample_rate)
