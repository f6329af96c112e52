"""Seeded, composable corruption pipeline producing degraded/clean pairs.

Randomness comes from numpy's Philox bit generator, a 64-bit counter-based
generator, so traces replay bit-exactly across platforms. Every stage
preserves the input length exactly and never emits NaN/Inf for finite input.

Default stage order (the order of STAGES): freq_shape -> reverb -> clip ->
add_noise -> spectral_corrupt -> time_varying_gain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .errors import ConfigError, ShapeError, VocalRestoreError
from .spectral import ComplexSpectrogram, StftParams, istft, stft

CORRUPT_WINDOWS = (512, 1024, 2048)
CORRUPT_HOPS = (256, 512, 1024)
CLIP_CURVES = ("hard", "tanh", "cubic")
FREQ_SHAPE_POINTS = 5
# _low_bin_envelope's blocks: bins per GEMM pair, and envelope entries
# added at once (4 MiB)
_ENVELOPE_BINS = 64
_ENVELOPE_CHUNK = 1 << 19


def _check_bounds(stage: str, **values) -> None:
    for key, value in values.items():
        lo, hi, open_lo = STAGES[stage][1].get(key, (-np.inf, np.inf, False))
        for v in np.ravel(value):
            if not ((v > lo if open_lo else v >= lo) and v <= hi):
                raise ConfigError(f"{stage}: {key} must be in "
                                  f"{'(' if open_lo else '['}{lo:g}, {hi:g}], got {v}")


def _check_nonempty(stage: str, **sizes) -> None:
    """Refuse an empty input by name, before numpy sizes a mean, a buffer or
    an FFT by it."""
    for name, n in sizes.items():
        if n < 1:
            raise ShapeError(f"{stage}: {name} has {n} samples, need at least 1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _shape_params(sr: int) -> StftParams:
    # Internal analysis grid for the frequency-shaping stage.
    n_fft = 1024 if sr >= 8000 else 256
    return StftParams(n_fft=n_fft, hop=n_fft // 4)


def freq_shape(wave: Waveform, freqs_hz, gains_db) -> Waveform:
    """Apply a piecewise log-frequency gain curve in the STFT magnitude
    domain (phase untouched); gains interpolate linearly between control
    points on a log-frequency axis."""
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    gains_db = np.asarray(gains_db, dtype=np.float64)
    _check_bounds("freq_shape", gain_db=gains_db)
    params = _shape_params(wave.sample_rate)
    spec = stft(wave, params)
    F = spec.bins.shape[0]
    bin_hz = np.arange(F) * wave.sample_rate / params.n_fft
    log_f = np.log10(np.maximum(bin_hz, 1.0))
    gain_db = np.interp(
        log_f, np.log10(np.maximum(freqs_hz, 1.0)), gains_db
    )
    gain = 10.0 ** (gain_db / 20.0)
    shaped = ComplexSpectrogram(spec.bins * gain[:, None], params)
    return istft(shaped, len(wave), wave.sample_rate)


def _fast_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= n, which pocketfft
    transforms without a Bluestein step."""
    best = 1 << (n - 1).bit_length()     # the smallest power of two >= n
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:                  # p = 3^b 5^c, times the fewest 2s that reach n
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def reverb(wave: Waveform, rt60: float, wet: float, seed: int) -> Waveform:
    """Convolve with a synthetic impulse response: unit direct tap plus
    seeded white noise under an exponential decay reaching -60 dB at rt60."""
    _check_bounds("reverb", rt60=rt60, wet=wet)
    sr = wave.sample_rate
    ir_len = min(int(rt60 * 1.5 * sr) + 1, max(len(wave), 1))
    t = np.arange(ir_len) / sr
    ir = _rng(seed).standard_normal(ir_len) * np.exp(-6.91 * t / rt60)
    ir[0] = 1.0
    if ir_len == 1:
        rev = wave.samples * ir          # a gain: a transform would only round it
    else:
        # linear convolution at a 5-smooth length >= n + ir_len - 1, kept to n
        M = _fast_len(len(wave) + ir_len - 1)
        rev = np.fft.irfft(np.fft.rfft(wave.samples, M) * np.fft.rfft(ir, M), M)[: len(wave)]
    return Waveform((1.0 - wet) * wave.samples + wet * rev, sr)


def clip(wave: Waveform, curve: str, drive: float) -> Waveform:
    """Drive the signal into one of three odd saturation curves; output is
    bounded in [-1, 1]."""
    _check_bounds("clip", drive=drive)
    x = wave.samples * drive
    if curve == "hard":
        y = np.clip(x, -1.0, 1.0)
    elif curve == "tanh":
        y = np.tanh(x)
    elif curve == "cubic":
        y = np.where(np.abs(x) <= 1.0, x - x ** 3 / 3.0, np.sign(x) * (2.0 / 3.0))
        y = y * 1.5  # renormalize the +-2/3 plateau to peak +-1
    else:
        raise ConfigError(f"unknown clip curve {curve!r}")
    return Waveform(y, wave.sample_rate)


@lru_cache(maxsize=1)
def _pink_kernel(n: int) -> tuple:
    """(M, H): the FFT length pink_noise filters n samples at, and the
    spectrum there of its circular 1/sqrt(f) kernel h = irfft(1/sqrt(f), n).
    M is n where n is 5-smooth, which numpy's pocketfft transforms without a
    Bluestein step; otherwise the smallest 5-smooth M >= 2n - 1, where the
    linear convolution with h folds back onto the circular one. One entry,
    read-only: a replay after its chain, or a run of crops of one length,
    shares it, and memory stays at one kernel (about 16 n bytes)."""
    f = np.arange(n // 2 + 1, dtype=np.float64)
    f[0] = 1.0
    H = 1.0 / np.sqrt(f)
    M = n if _fast_len(n) == n else _fast_len(2 * n - 1)
    if M != n:
        H = np.fft.rfft(np.fft.irfft(H, n), M)
    H.flags.writeable = False
    return M, H


def pink_noise(n: int, seed: int) -> np.ndarray:
    """Seeded pink (1/f) noise of unit RMS: white noise with its bin k scaled
    by 1/sqrt(k) (bin 0 kept), that is, circularly convolved with
    irfft(1/sqrt(f), n). The convolution runs at the 5-smooth FFT length of
    _pink_kernel, so no transform runs at a length with large prime factors
    once the kernel is cached."""
    _check_nonempty("pink_noise", n=n)
    white = _rng(seed).standard_normal(n)
    M, H = _pink_kernel(n)
    spec = np.fft.rfft(white, M)
    spec *= H
    z = np.fft.irfft(spec, M)
    out = z[:n]
    if M != n:
        out[:n - 1] += z[n:2 * n - 1]
    return out / max(np.sqrt(np.mean(out ** 2)), 1e-12)


def add_noise(wave: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Mix in noise scaled so the signal-to-noise power ratio equals snr_db;
    noise is looped/cropped to the signal length."""
    _check_nonempty("add_noise", wave=len(wave), noise=len(noise))
    p_sig = float(np.mean(wave.samples ** 2))
    if p_sig <= 0.0:
        raise VocalRestoreError("cannot set an SNR against a silent signal")
    n = noise.samples
    if len(n) < len(wave):
        reps = int(np.ceil(len(wave) / max(len(n), 1)))
        n = np.tile(n, reps)
    n = n[: len(wave)]
    p_noise = float(np.mean(n ** 2))
    if p_noise <= 0.0:
        raise VocalRestoreError("noise source is silent")
    scale = np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(wave.samples + scale * n, wave.sample_rate)


def _corrupt_grid(rng) -> tuple:
    """Rejection-sample (window, hop) from the corrupt grids with 2*hop <= window."""
    while True:
        n_fft = int(rng.choice(CORRUPT_WINDOWS))
        hop = int(rng.choice(CORRUPT_HOPS))
        if 2 * hop <= n_fft:
            return n_fft, hop


def spectral_corrupt(
    wave: Waveform,
    mask_fraction: float,
    phase_noise_std: float,
    seed: int,
    n_fft: int,
    hop: int,
) -> Waveform:
    """Zero a random subset of magnitude bins and jitter phases, analyzed and
    resynthesized at the STFT grid n_fft/hop, which the chain draws with
    _corrupt_grid (window in {512,1024,2048}, hop in {256,512,1024},
    restricted to hop <= window/2 so resynthesis stays invertible under the
    Hann window)."""
    _check_bounds("spectral_corrupt", mask_fraction=mask_fraction, phase_noise_std=phase_noise_std)
    rng = _rng(seed)
    params = StftParams(n_fft=n_fft, hop=hop)
    bins = stft(wave, params).bins
    keep = rng.random(bins.shape) >= mask_fraction
    jitter = rng.normal(0.0, phase_noise_std, size=bins.shape)
    # |X| * keep * exp(i (angle(X) + jitter)) = X * keep * exp(i jitter),
    # with exp(i jitter) written as cos + i sin into one buffer
    rot = np.empty(bins.shape, bins.dtype)
    np.cos(jitter, out=rot.real)
    np.sin(jitter, out=rot.imag)
    rot *= keep
    rot *= bins
    return istft(ComplexSpectrogram(rot, params), len(wave), wave.sample_rate)


def _twiddles(k: np.ndarray, n: int, B: int, S: int) -> tuple:
    """cos/sin of bins k's phases on the (B, S) fold of n samples: the column
    table [cos | sin] of 2 pi k s / n, (S, 2 len(k)), and the cos and sin of
    the row phases 2 pi k b S / n, (B, len(k)). Each phase index is an
    integer below 2^53 reduced mod n first, exactly in float64 (faster than
    int64 %), so no phase loses precision at any length."""
    col = np.outer(np.arange(S, dtype=np.float64), k)
    row = np.outer(np.arange(B, dtype=np.float64), k * S % n)
    for phase in (col, row):
        phase -= n * np.floor(phase / n)
        phase *= 2.0 * np.pi / n
    return np.concatenate([np.cos(col), np.sin(col)], axis=1), np.cos(row), np.sin(row)


def _low_bin_envelope(x: np.ndarray, n: int, K: int) -> np.ndarray:
    """irfft(rfft(signal) with the bins above K zeroed, n) for K <= n // 2,
    from bins 0..K alone; x is the n-sample signal zero-padded to (B, S)
    rows. Bin k's twiddle at sample b*S + s is a column phase k*s times a
    row phase k*b*S, so each block of _ENVELOPE_BINS bins takes one GEMM
    against its column table to get X_k and one back. The tables hold
    (B + S) * 2 * _ENVELOPE_BINS doubles (3.5 MiB at 240 s of 48 kHz), and
    later blocks add into the envelope _ENVELOPE_CHUNK entries at a time."""
    B, S = x.shape
    rows = max(1, _ENVELOPE_CHUNK // S)
    env = np.empty((B, S))
    for k0 in range(0, K + 1, _ENVELOPE_BINS):
        k = np.arange(k0, min(k0 + _ENVELOPE_BINS, K + 1))
        table, rc, rs = _twiddles(k, n, B, S)
        # X_k = sum_b e^{-i row} sum_s x e^{-i col}, the inner sum re - i im,
        # times irfft's weights: 1/n on bin 0 and bin n/2, 2/n on the others
        y = x @ table
        re, im = y[:, :len(k)], y[:, len(k):]
        scale = np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n
        xr = scale * np.sum(rc * re - rs * im, axis=0)
        xi = -scale * np.sum(rs * re + rc * im, axis=0)
        # env[b, s] = sum_k Re(X_k e^{i row} e^{i col})
        p = np.concatenate([xr * rc - xi * rs, -(xr * rs + xi * rc)], axis=1)
        if k0 == 0:
            np.matmul(p, table.T, out=env)
        else:
            for r in range(0, B, rows):
                env[r:r + rows] += p[r:r + rows] @ table.T
    return env.reshape(-1)[:n]


def time_varying_gain(
    wave: Waveform, cutoff_hz: float, depth: float, seed: int
) -> Waveform:
    """Multiply by a smooth random gain envelope g(t) in [1-depth, 1+depth],
    built by brick-wall lowpassing seeded white noise (keeping the rfft bins
    at or below cutoff_hz) and renormalizing its peak. The kept bins are few,
    K + 1 <= 20 Hz * seconds + 1, so _low_bin_envelope evaluates them by GEMM
    and no transform runs at the clip's length."""
    _check_bounds("time_varying_gain", cutoff_hz=cutoff_hz, depth=depth)
    n = len(wave)
    _check_nonempty("time_varying_gain", wave=n)
    K = int(np.count_nonzero(np.fft.rfftfreq(n, d=1.0 / wave.sample_rate) <= cutoff_hz)) - 1
    S = math.isqrt(n - 1) + 1
    noise = np.zeros((-(-n // S), S))
    _rng(seed).standard_normal(out=noise.reshape(-1)[:n])
    g = _low_bin_envelope(noise, n, K)
    del noise
    peak = np.max(np.abs(g))
    if peak > 0:
        g /= peak
    g *= depth
    g += 1.0
    return Waveform(g * wave.samples, wave.sample_rate)


# ---------------------------------------------------------------------------
# Chain configuration, traces, replay
# ---------------------------------------------------------------------------


def _sample_freq_shape(rng, r: dict, seed: int, sr: int) -> dict:
    freqs = np.logspace(np.log10(50.0), np.log10(sr / 2.0), FREQ_SHAPE_POINTS)
    return {
        "freqs_hz": [float(f) for f in freqs],
        "gains_db": [float(rng.uniform(*r["gain_db"])) for _ in range(FREQ_SHAPE_POINTS)],
    }


def _sample_spectral_corrupt(rng, r: dict, seed: int, sr: int) -> dict:
    n_fft, hop = _corrupt_grid(rng)
    return {
        "mask_fraction": float(rng.uniform(*r["mask_fraction"])),
        "phase_noise_std": float(rng.uniform(*r["phase_noise_std"])),
        "n_fft": n_fft,
        "hop": hop,
        "seed": seed,
    }


# name -> (default ranges, bounds, sample, apply), in chain order.
# bounds: key -> (low, high, low end excluded), the values the stage function
# accepts, which StageConfig also checks each range end against.
# sample(rng, ranges, sub_seed, sample_rate) returns the trace parameters,
# drawn in a fixed order; apply(wave, params) runs the stage. Each apply looks
# its stage function up by module-global name when it runs, so wrappers
# installed on this module (perfbench/tracing.py) see the call.
STAGES = {
    "freq_shape": (
        {"gain_db": (-30.0, 0.0)},
        {"gain_db": (-60.0, 12.0, False)},
        _sample_freq_shape,
        lambda wave, p: freq_shape(wave, **p),
    ),
    "reverb": (
        {"rt60": (0.1, 1.5), "wet": (0.1, 0.9)},
        {"rt60": (0.1, 3.0, False), "wet": (0.0, 1.0, False)},
        lambda rng, r, seed, sr: {
            "rt60": float(rng.uniform(*r["rt60"])),
            "wet": float(rng.uniform(*r["wet"])),
            "seed": seed,
        },
        lambda wave, p: reverb(wave, **p),
    ),
    "clip": (
        {"drive": (1.0, 10.0)},
        {"drive": (1.0, np.inf, False)},
        lambda rng, r, seed, sr: {
            "curve": CLIP_CURVES[int(rng.integers(len(CLIP_CURVES)))],
            "drive": float(rng.uniform(*r["drive"])),
        },
        lambda wave, p: clip(wave, **p),
    ),
    "add_noise": (
        {"snr_db": (-5.0, 30.0)},
        {},
        lambda rng, r, seed, sr: {"snr_db": float(rng.uniform(*r["snr_db"])), "seed": seed},
        lambda wave, p: add_noise(
            wave, Waveform(pink_noise(len(wave), p["seed"]), wave.sample_rate), p["snr_db"]
        ),
    ),
    "spectral_corrupt": (
        {"mask_fraction": (0.0, 0.3), "phase_noise_std": (0.0, 0.8)},
        {"mask_fraction": (0.0, 1.0, False), "phase_noise_std": (0.0, np.inf, False)},
        _sample_spectral_corrupt,
        lambda wave, p: spectral_corrupt(wave, **p),
    ),
    "time_varying_gain": (
        {"cutoff_hz": (0.5, 8.0), "depth": (0.0, 0.5)},
        {"cutoff_hz": (0.0, 20.0, True), "depth": (0.0, 1.0, False)},
        lambda rng, r, seed, sr: {
            "cutoff_hz": float(rng.uniform(*r["cutoff_hz"])),
            "depth": float(rng.uniform(*r["depth"])),
            "seed": seed,
        },
        lambda wave, p: time_varying_gain(wave, **p),
    ),
}
STAGE_ORDER = tuple(STAGES)


def _stage(name: str) -> tuple:
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")
    return STAGES[name]


@dataclass(frozen=True)
class StageConfig:
    name: str
    prob: float = 0.5
    ranges: dict = field(default_factory=dict)   # param -> (lo, hi)

    def __post_init__(self):
        defaults = _stage(self.name)[0]
        if not (0.0 <= self.prob <= 1.0):
            raise ConfigError(f"{self.name}: prob must be in [0, 1]")
        unknown = sorted(set(self.ranges) - set(defaults))
        missing = [key for key in defaults if key not in self.ranges]
        if unknown or missing:
            raise ConfigError(f"{self.name}: unknown keys {unknown}, missing ranges {missing}")
        for key, (lo, hi) in self.ranges.items():
            if lo > hi:
                raise ConfigError(f"{self.name}.{key}: empty range {lo}..{hi}")
        _check_bounds(self.name, **self.ranges)


def _parse(kind, key: str, text: str):
    """kind(text), or a ConfigError that names the spec key."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {text.strip()!r}") from exc


@dataclass(frozen=True)
class DegradationSpec:
    stages: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def default(cls, seed: int = 0, prob: float = 0.5) -> "DegradationSpec":
        return cls(
            tuple(
                StageConfig(name, prob, dict(ranges))
                for name, (ranges, *_) in STAGES.items()
            ),
            seed,
        )

    def to_text(self) -> str:
        lines = [f"seed = {self.seed}", ""]
        for stage in self.stages:
            lines.append(f"[{stage.name}]")
            lines.append(f"prob = {stage.prob}")
            for key, (lo, hi) in stage.ranges.items():
                lines.append(f"{key} = {lo}..{hi}")
            lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "DegradationSpec":
        seed = 0
        stages = []
        current = None
        seen = set()   # keys of the current section: a stage listed twice is two draws
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                if current is not None:
                    stages.append(StageConfig(**current))
                current = {"name": line[1:-1], "prob": 0.5, "ranges": {}}
                seen = set()
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            name = key if current is None else f"{current['name']}.{key}"
            if name in seen:
                raise ConfigError(f"{name} is listed twice")
            seen.add(name)
            if current is None:
                if key != "seed":
                    raise ConfigError(f"unexpected key {key!r} before any stage")
                seed = _parse(int, key, value)
            elif key == "prob":
                current["prob"] = _parse(float, name, value)
            else:
                lo, sep, hi = value.partition("..")
                if not sep:
                    raise ConfigError(f"{name}: expected a lo..hi range, got {value!r}")
                current["ranges"][key] = (_parse(float, name, lo), _parse(float, name, hi))
        if current is not None:
            stages.append(StageConfig(**current))
        return cls(tuple(stages), seed)


@dataclass
class StageTrace:
    """Per-stage record of the parameters actually applied."""

    entries: list = field(default_factory=list)

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.entries)

    @classmethod
    def from_json_lines(cls, text: str) -> "StageTrace":
        return cls([json.loads(line) for line in text.splitlines() if line.strip()])


def apply_chain(wave: Waveform, spec: DegradationSpec):
    """Draw the trace of the configured stages, each enabled by an independent
    seeded draw that reads only the sample rate, then apply it with
    replay_trace. Returns (degraded waveform, trace); deterministic per (wave, spec)."""
    trace = StageTrace()
    for idx, stage in enumerate(spec.stages):
        ss = np.random.SeedSequence([spec.seed, idx])
        rng = np.random.Generator(np.random.Philox(ss))
        sub_seed = int(ss.generate_state(1)[0])
        if rng.random() < stage.prob:
            sample = STAGES[stage.name][2]
            params = sample(rng, stage.ranges, sub_seed, wave.sample_rate)
            trace.entries.append({"stage": stage.name, "params": params})
    return replay_trace(wave, trace), trace


def replay_trace(wave: Waveform, trace: StageTrace) -> Waveform:
    """Apply the recorded parameters in order; apply_chain runs its stages
    through this loop, so replay is bit-exact against it. An empty waveform
    is refused here, before any stage sizes a buffer or an FFT by it."""
    if not len(wave):
        raise ShapeError("cannot degrade an empty waveform (0 samples)")
    out = wave
    for entry in trace.entries:
        apply = _stage(entry["stage"])[3]
        out = apply(out, entry["params"])
    return out
