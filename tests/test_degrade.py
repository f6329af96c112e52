import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from vocalrestore.audio_io import Waveform
from vocalrestore.degrade import (
    CLIP_CURVES,
    CORRUPT_HOPS,
    CORRUPT_WINDOWS,
    STAGE_ORDER,
    DegradationSpec,
    StageConfig,
    StageTrace,
    _fast_len,
    _pink_kernel,
    add_noise,
    apply_chain,
    clip,
    freq_shape,
    pink_noise,
    replay_trace,
    reverb,
    spectral_corrupt,
    time_varying_gain,
)
from vocalrestore.errors import ConfigError, ShapeError, VocalRestoreError
from vocalrestore.spectral import ComplexSpectrogram, StftParams, istft, stft


SR = 48000


def _wave(n=14400, seed=0, amp=0.1):
    return Waveform(amp * np.random.default_rng(seed).standard_normal(n), SR)


def _tone(freq, n=14400, amp=0.1):
    t = np.arange(n) / SR
    return Waveform(amp * np.sin(2 * np.pi * freq * t), SR)


# ---------------------------------------------------------------------------
# individual stages
# ---------------------------------------------------------------------------


def test_freq_shape_flat_curve_is_identity():
    x = _wave(8000, seed=1)
    out = freq_shape(x, [50.0, 24000.0], [0.0, 0.0])
    assert np.max(np.abs(out.samples - x.samples)) < 1e-9


def test_freq_shape_attenuates_target_band():
    """A -40 dB notch across the upper half kills a high tone but leaves a
    low tone mostly intact."""
    lo, hi = _tone(200.0), _tone(18000.0)
    freqs = [50.0, 8000.0, 9000.0, 24000.0]
    gains = [0.0, 0.0, -40.0, -40.0]
    out_lo = freq_shape(lo, freqs, gains)
    out_hi = freq_shape(hi, freqs, gains)
    rms = lambda w: np.sqrt(np.mean(w.samples[2000:-2000] ** 2))
    assert rms(out_lo) / rms(lo) > 0.8
    assert rms(out_hi) / rms(hi) < 0.05


def test_freq_shape_gain_bounds():
    x = _wave(4000)
    with pytest.raises(ConfigError):
        freq_shape(x, [100.0], [-70.0])
    with pytest.raises(ConfigError):
        freq_shape(x, [100.0], [20.0])


def test_reverb_deterministic_and_bounds():
    x = _wave(seed=2)
    a = reverb(x, rt60=0.4, wet=0.5, seed=7)
    b = reverb(x, rt60=0.4, wet=0.5, seed=7)
    c = reverb(x, rt60=0.4, wet=0.5, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    with pytest.raises(ConfigError):
        reverb(x, rt60=0.01, wet=0.5, seed=0)
    with pytest.raises(ConfigError):
        reverb(x, rt60=0.5, wet=1.5, seed=0)


def test_reverb_dry_passthrough():
    x = _wave(seed=3)
    out = reverb(x, rt60=1.0, wet=0.0, seed=0)
    assert np.array_equal(out.samples, x.samples)


# (n, sample rate, rt60): one sample; the response clamped to the input
# (1.5 rt60 of samples reaches past it), at n + ir_len - 1 5-smooth and
# not; a response shorter than the input; and one tap, a gain, at a rate
# of 6 Hz
REVERB_CASES = [(1, SR, 0.5), (2, SR, 0.5), (1000, SR, 0.5), (72000, SR, 1.2),
                (143999, SR, 2.9), (144000, SR, 3.0), (72000, SR, 0.3), (50, 6, 0.1)]


@pytest.mark.parametrize("n, sr, rt60", REVERB_CASES)
def test_reverb_matches_fftconvolve(n, sr, rt60):
    """The wet path is scipy's fftconvolve(x, ir)[:n] bit for bit, with the
    response reverb draws."""
    x = _philox(n).standard_normal(n) * 0.3
    ir_len = min(int(rt60 * 1.5 * sr) + 1, n)
    t = np.arange(ir_len) / sr
    ir = _philox(5).standard_normal(ir_len) * np.exp(-6.91 * t / rt60)
    ir[0] = 1.0
    wet = reverb(Waveform(x, sr), rt60, wet=1.0, seed=5).samples
    assert np.array_equal(wet, fftconvolve(x, ir)[:n])


def test_fast_len_matches_scipy():
    """_fast_len is scipy.fft.next_fast_len(n, real=True): the smallest
    5-smooth length >= n, on every n to 20000 and on seeded larger ones."""
    big = np.random.default_rng(0).integers(20001, 10**9, 2000)
    for n in [*range(1, 20001), *map(int, big)]:
        assert _fast_len(n) == next_fast_len(n, real=True), n


def test_reverb_adds_tail_energy():
    """An impulse followed by silence gains a decaying tail."""
    x = np.zeros(SR)
    x[100] = 1.0
    out = reverb(Waveform(x, SR), rt60=0.5, wet=0.8, seed=1)
    tail = out.samples[1000:]
    assert np.sqrt(np.mean(tail**2)) > 1e-4
    # the tail decays: first tenth of the tail is louder than the last
    n = len(tail) // 10
    assert np.mean(tail[:n] ** 2) > np.mean(tail[-n:] ** 2)


@pytest.mark.parametrize("curve", CLIP_CURVES)
def test_clip_bounded_and_odd(curve):
    x = _wave(4000, seed=4, amp=1.0)
    out = clip(x, curve, drive=5.0)
    assert np.max(np.abs(out.samples)) <= 1.0 + 1e-12
    # odd symmetry: clip(-x) = -clip(x)
    neg = clip(Waveform(-x.samples, SR), curve, drive=5.0)
    assert np.allclose(neg.samples, -out.samples)


def test_clip_small_signal_nearly_linear():
    """At unit drive, tiny inputs pass through the soft curves almost
    unchanged."""
    x = _wave(2000, seed=5, amp=1e-3)
    for curve in CLIP_CURVES:
        out = clip(x, curve, drive=1.0)
        scale = 1.5 if curve == "cubic" else 1.0
        assert np.max(np.abs(out.samples - scale * x.samples)) < 1e-5


def test_clip_errors():
    x = _wave(100)
    with pytest.raises(ConfigError):
        clip(x, "hard", drive=0.5)
    with pytest.raises(ConfigError):
        clip(x, "square", drive=2.0)


def test_pink_noise_properties():
    n = 1 << 16
    a = pink_noise(n, seed=1)
    b = pink_noise(n, seed=1)
    assert np.array_equal(a, b)
    assert abs(np.sqrt(np.mean(a**2)) - 1.0) < 1e-9
    # spectral tilt: average power in 100-500 Hz bins exceeds 5-25 kHz bins
    spec = np.abs(np.fft.rfft(a)) ** 2
    low = spec[100:500].mean()
    high = spec[5000:25000].mean()
    assert low > 10 * high


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# n = 1 and 2, primes (3, 7, 79579), odd and even lengths that fold back
# from a fast length, and 5-smooth lengths (4096, 48000, 72000, 144000),
# which filter at n itself
NOISE_LENGTHS = [1, 2, 3, 7, 100, 1001, 4096, 48000, 72000, 79579, 136421, 144000]


@pytest.mark.parametrize("n", NOISE_LENGTHS)
def test_pink_noise_matches_length_n_filter(n):
    """The fast-length convolution gives the length-n spectral filter,
    irfft(rfft(white) / sqrt(f), n), to within 1e-12 of its unit RMS."""
    spec = np.fft.rfft(_philox(4).standard_normal(n))
    f = np.arange(len(spec), dtype=np.float64)
    f[0] = 1.0
    want = np.fft.irfft(spec / np.sqrt(f), n=n)
    want /= np.sqrt(np.mean(want ** 2))
    assert np.max(np.abs(pink_noise(n, seed=4) - want)) < 1e-12


def test_pink_noise_cache_hit_equals_miss():
    """The one cached kernel is a pure function of n: a hit gives the miss's
    noise bitwise, with another length (a 5-smooth one and one that folds)
    filtered in between, and the cached spectrum cannot be written."""
    first = pink_noise(79579, seed=2)
    assert np.array_equal(pink_noise(79579, seed=2), first)
    for other in (144000, 1001):
        pink_noise(other, seed=2)
        assert np.array_equal(pink_noise(79579, seed=2), first)
    _, H = _pink_kernel(79579)
    with pytest.raises(ValueError):
        H[0] = 0.0


def _lowpassed(n, sr, cutoff_hz, seed):
    """time_varying_gain's envelope as a length-n transform pair: the noise's
    bins above cutoff_hz zeroed, then peak-normalized."""
    spec = np.fft.rfft(_philox(seed).standard_normal(n))
    spec[np.fft.rfftfreq(n, d=1.0 / sr) > cutoff_hz] = 0.0
    env = np.fft.irfft(spec, n=n)
    return env / np.max(np.abs(env))


@pytest.mark.parametrize("n", NOISE_LENGTHS)
@pytest.mark.parametrize("sr, cutoff_hz", [(48000, 0.5), (48000, 7.9), (16000, 20.0),
                                           (40, 20.0), (40, 7.9)])
def test_time_varying_gain_matches_length_n_lowpass(n, sr, cutoff_hz):
    """The envelope from bins 0..K by GEMM equals the brick-wall lowpass
    through length-n transforms within 1e-12 of its peak, 1, including the
    Nyquist bin (sr = 40 Hz at a 20 Hz cutoff keeps every bin)."""
    x = Waveform(np.linspace(0.5, 1.0, n), sr)
    got = time_varying_gain(x, cutoff_hz, 0.25, seed=6).samples
    want = (1.0 + 0.25 * _lowpassed(n, sr, cutoff_hz, 6)) * x.samples
    assert np.max(np.abs(got - want)) < 0.25 * 1e-12


def test_time_varying_gain_blocks_of_bins():
    """Past one block of bins the envelope accumulates block by block: 60 s
    at a 20 Hz cutoff keeps 1201 bins. It stays within 1e-12 of the peak, and
    its traced memory peak stays at or below the length-n formula's."""
    sr, n = SR, 60 * SR + 7
    x = Waveform(np.ones(n), sr)
    tracemalloc.start()
    try:
        want = (1.0 + 0.5 * _lowpassed(n, sr, 20.0, 8)) * x.samples
        held, formula_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = time_varying_gain(x, 20.0, 0.5, seed=8).samples
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - want)) < 0.5 * 1e-12
    assert peak - held <= formula_peak, (peak - held, formula_peak)


@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 10.0, 30.0])
def test_add_noise_snr_exact(snr_db):
    x = _wave(seed=6)
    noise = Waveform(pink_noise(len(x), seed=2), SR)
    out = add_noise(x, noise, snr_db)
    added = out.samples - x.samples
    measured = 10.0 * np.log10(np.mean(x.samples**2) / np.mean(added**2))
    assert abs(measured - snr_db) < 0.01


def test_add_noise_loops_short_noise():
    x = _wave(10000, seed=7)
    noise = Waveform(pink_noise(3000, seed=3), SR)
    out = add_noise(x, noise, 10.0)
    measured = 10.0 * np.log10(
        np.mean(x.samples**2) / np.mean((out.samples - x.samples) ** 2)
    )
    assert abs(measured - 10.0) < 0.01


def test_add_noise_silent_inputs():
    silent = Waveform(np.zeros(1000), SR)
    noise = Waveform(pink_noise(1000, seed=0), SR)
    with pytest.raises(VocalRestoreError, match="cannot set an SNR against a silent signal"):
        add_noise(silent, noise, 10.0)
    with pytest.raises(VocalRestoreError, match="noise source is silent"):
        add_noise(_wave(1000), silent, 10.0)


def test_spectral_corrupt_identity_when_disabled():
    """Zero mask fraction and zero phase noise leave the signal unchanged on
    every grid the chain can draw (each is invertible)."""
    x = _wave(seed=8)
    for n_fft in CORRUPT_WINDOWS:
        for hop in CORRUPT_HOPS:
            if 2 * hop <= n_fft:
                out = spectral_corrupt(x, 0.0, 0.0, seed=5, n_fft=n_fft, hop=hop)
                assert np.max(np.abs(out.samples - x.samples)) < 1e-9


def test_spectral_corrupt_grid_constraint():
    """The grids apply_chain traces satisfy 2*hop <= window, and over 60
    seeds every one of the six allowed (window, hop) pairs is drawn."""
    x = _wave(6000, seed=9)
    stage = StageConfig("spectral_corrupt", 1.0, {"mask_fraction": (0.1, 0.1),
                                                  "phase_noise_std": (0.1, 0.1)})
    seen = set()
    for seed in range(60):
        out, trace = apply_chain(x, DegradationSpec((stage,), seed))
        assert len(out) == len(x) and np.all(np.isfinite(out.samples))
        (entry,) = trace.entries
        grid = (entry["params"]["n_fft"], entry["params"]["hop"])
        assert grid[0] in CORRUPT_WINDOWS and grid[1] in CORRUPT_HOPS
        assert 2 * grid[1] <= grid[0], grid
        seen.add(grid)
    assert len(seen) == 6, seen


def test_spectral_corrupt_mask_removes_energy():
    x = _wave(seed=10)
    heavy = spectral_corrupt(x, 0.9, 0.0, seed=1, n_fft=1024, hop=256)
    light = spectral_corrupt(x, 0.05, 0.0, seed=1, n_fft=1024, hop=256)
    assert np.mean(heavy.samples**2) < np.mean(light.samples**2)
    with pytest.raises(ConfigError):
        spectral_corrupt(x, 1.5, 0.0, seed=0, n_fft=1024, hop=256)


@pytest.mark.parametrize("n_fft, hop", [(512, 256), (1024, 256), (2048, 1024)])
def test_spectral_corrupt_matches_polar_form(n_fft, hop):
    """Rotating the bins by keep * (cos + i sin) of the jitter gives the
    polar form |X| * keep * exp(i * (angle(X) + jitter)), from the same two
    draws, to within 1e-12 of the output RMS, and the complex exponential
    form istft(bins * (keep * exp(i * jitter))) to within 1e-14 of its
    peak."""
    x = _wave(seed=12)
    params = StftParams(n_fft=n_fft, hop=hop)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    bins = stft(x, params).bins
    keep = rng.random(bins.shape) >= 0.3
    jitter = rng.normal(0.0, 0.8, size=bins.shape)
    polar = np.abs(bins) * keep * np.exp(1j * (np.angle(bins) + jitter))
    want = istft(ComplexSpectrogram(polar, params), len(x), SR).samples
    rotated = bins * (keep * np.exp(1j * jitter))
    want_exp = istft(ComplexSpectrogram(rotated, params), len(x), SR).samples
    got = spectral_corrupt(x, 0.3, 0.8, seed=7, n_fft=n_fft, hop=hop).samples
    assert np.max(np.abs(got - want)) < 1e-12 * np.sqrt(np.mean(want ** 2))
    assert np.max(np.abs(got - want_exp)) < 1e-14 * np.max(np.abs(want_exp))


def test_time_varying_gain_bounds_and_smoothness():
    x = Waveform(np.ones(SR), SR)
    cutoff, depth = 2.0, 0.4
    out = time_varying_gain(x, cutoff, depth, seed=3)
    g = out.samples
    assert np.all(g >= 1.0 - depth - 1e-9)
    assert np.all(g <= 1.0 + depth + 1e-9)
    # a brick-wall lowpassed envelope cannot change faster than its highest
    # component: |dg/dt| <= 2*pi*cutoff*depth (with headroom)
    step = np.max(np.abs(np.diff(g)))
    assert step < 2 * np.pi * cutoff / SR * depth * 10


def test_time_varying_gain_errors():
    x = _wave(1000)
    with pytest.raises(ConfigError):
        time_varying_gain(x, 0.0, 0.2, seed=0)
    with pytest.raises(ConfigError):
        time_varying_gain(x, 2.0, 1.5, seed=0)


# stage -> (call, None where an empty input comes back empty, else the
# ShapeError message it raises)
_EMPTY_INPUT = {
    "freq_shape": (lambda w: freq_shape(w, [50.0, 24000.0], [-6.0, 0.0]), "empty waveform"),
    "reverb": (lambda w: reverb(w, 0.5, 0.5, seed=0), None),
    "clip": (lambda w: clip(w, "tanh", 2.0), None),
    "add_noise": (lambda w: add_noise(w, _wave(100), 10.0), "add_noise: wave has 0 samples"),
    "spectral_corrupt": (lambda w: spectral_corrupt(w, 0.1, 0.1, 0, 512, 256), "empty waveform"),
    "time_varying_gain": (lambda w: time_varying_gain(w, 2.0, 0.3, seed=0),
                          "time_varying_gain: wave has 0 samples"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_stage_on_empty_waveform(stage):
    """Called on its own, outside replay_trace's check, each stage function
    either returns an empty waveform or raises a ShapeError that names the
    empty input, before numpy warns or fails on a zero length."""
    call, message = _EMPTY_INPUT[stage]
    empty = Waveform(np.zeros(0), SR)
    if message is None:
        assert len(call(empty)) == 0
    else:
        with pytest.raises(ShapeError, match=message):
            call(empty)


@pytest.mark.filterwarnings("error")
def test_empty_noise_inputs_are_named():
    with pytest.raises(ShapeError, match="pink_noise: n has 0 samples"):
        pink_noise(0, seed=0)
    with pytest.raises(ShapeError, match="add_noise: noise has 0 samples"):
        add_noise(_wave(100), Waveform(np.zeros(0), SR), 10.0)


# ---------------------------------------------------------------------------
# chain, spec text, traces
# ---------------------------------------------------------------------------


def test_stage_order():
    assert STAGE_ORDER == (
        "freq_shape",
        "reverb",
        "clip",
        "add_noise",
        "spectral_corrupt",
        "time_varying_gain",
    )


def test_default_spec_round_trips_through_text():
    spec = DegradationSpec.default(seed=42, prob=0.7)
    back = DegradationSpec.from_text(spec.to_text())
    assert back == spec


def test_spec_text_errors():
    with pytest.raises(ConfigError):
        DegradationSpec.from_text("prob = 0.5\n")
    with pytest.raises(ConfigError):
        DegradationSpec.from_text("[clip]\ndrive = 5\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[clip]\nprob = 1.0\n", "clip: unknown keys [], missing ranges ['drive']"),
        ("[bogus]\nprob = 0.0\n", "unknown stage 'bogus'"),
        ("[clip]\ndrive = 5\n", "clip.drive: expected a lo..hi range, got '5'"),
        ("[clip]\ndrive = 1..5\nextra = 0..1\n", "clip: unknown keys ['extra'], missing ranges []"),
        # range ends outside the stage's bounds, which would fail only on the
        # seeds that draw beyond them
        ("[reverb]\nrt60 = 0.1..5.0\nwet = 0..1\n", "reverb: rt60 must be in [0.1, 3], got 5.0"),
        ("[reverb]\nrt60 = 0.1..1\nwet = -0.5..1\n", "reverb: wet must be in [0, 1], got -0.5"),
        ("[clip]\ndrive = 0.5..3\n", "clip: drive must be in [1, inf], got 0.5"),
        ("[freq_shape]\ngain_db = -30..20\n", "freq_shape: gain_db must be in [-60, 12], got 20.0"),
        ("[spectral_corrupt]\nmask_fraction = 0..1.5\nphase_noise_std = 0..1\n",
         "spectral_corrupt: mask_fraction must be in [0, 1], got 1.5"),
        ("[spectral_corrupt]\nmask_fraction = 0..1\nphase_noise_std = -1..1\n",
         "spectral_corrupt: phase_noise_std must be in [0, inf], got -1.0"),
        ("[time_varying_gain]\ncutoff_hz = 0..8\ndepth = 0..0.5\n",
         "time_varying_gain: cutoff_hz must be in (0, 20], got 0.0"),
        ("[time_varying_gain]\ncutoff_hz = 1..8\ndepth = 0..2\n",
         "time_varying_gain: depth must be in [0, 1], got 2.0"),
    ],
)
def test_spec_validation(text, message):
    """Specs are checked against the stage table when parsed, not when a
    stage happens to run."""
    with pytest.raises(ConfigError) as info:
        DegradationSpec.from_text(text)
    assert message in str(info.value)


_REVERB = "[reverb]\nprob = 0.2\nrt60 = 0.2..0.3\nwet = 0.1..0.2\n"


@pytest.mark.parametrize("text, message", [
    ("seed = 1\nseed = 7\n" + _REVERB, "seed is listed twice"),
    (_REVERB + "prob = 0.9\n", "reverb.prob is listed twice"),
    (_REVERB + "rt60 = 0.5..0.6\n", "reverb.rt60 is listed twice"),
], ids=["seed", "prob", "range"])
def test_spec_refuses_a_repeated_key(text, message):
    """A key set twice in one section has no one value: it is refused by
    name, not settled by the last line."""
    with pytest.raises(ConfigError, match=message):
        DegradationSpec.from_text(text)


def test_spec_stage_listed_twice_is_two_draws():
    """A stage header listed twice is two independent stages, each with its
    own keys."""
    spec = DegradationSpec.from_text(_REVERB + _REVERB.replace("0.2\n", "0.7\n", 1))
    assert [(stage.name, stage.prob) for stage in spec.stages] == [("reverb", 0.2), ("reverb", 0.7)]


def test_stage_config_validation():
    with pytest.raises(ConfigError):
        StageConfig("clip", prob=1.5)
    with pytest.raises(ConfigError):
        StageConfig("clip", ranges={"drive": (5.0, 1.0)})


def test_chain_deterministic():
    x = _wave(seed=11)
    spec = DegradationSpec.default(seed=123, prob=1.0)
    a, trace_a = apply_chain(x, spec)
    b, trace_b = apply_chain(x, spec)
    assert np.array_equal(a.samples, b.samples)
    assert trace_a.entries == trace_b.entries
    c, _ = apply_chain(x, DegradationSpec.default(seed=124, prob=1.0))
    assert not np.array_equal(a.samples, c.samples)


def test_chain_prob_zero_is_identity():
    x = _wave(seed=12)
    out, trace = apply_chain(x, DegradationSpec.default(seed=0, prob=0.0))
    assert np.array_equal(out.samples, x.samples)
    assert trace.entries == []


def test_chain_trace_replay_bit_exact():
    x = _wave(seed=13)
    spec = DegradationSpec.default(seed=55, prob=1.0)
    out, trace = apply_chain(x, spec)
    assert len(trace.entries) == len(STAGE_ORDER)
    replayed = replay_trace(x, trace)
    assert np.array_equal(replayed.samples, out.samples)


def test_trace_json_round_trip():
    x = _wave(seed=14)
    _, trace = apply_chain(x, DegradationSpec.default(seed=9, prob=1.0))
    back = StageTrace.from_json_lines(trace.to_json_lines())
    assert back.entries == trace.entries
    replayed = replay_trace(x, back)
    out, _ = apply_chain(x, DegradationSpec.default(seed=9, prob=1.0))
    assert np.array_equal(replayed.samples, out.samples)


def test_chain_stage_order_respected():
    """Every recorded stage appears in canonical order."""
    x = _wave(seed=15)
    for seed in range(10):
        _, trace = apply_chain(x, DegradationSpec.default(seed=seed, prob=0.5))
        names = [e["stage"] for e in trace.entries]
        idx = [STAGE_ORDER.index(n) for n in names]
        assert idx == sorted(idx)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_chain_always_finite(seed):
    x = _wave(4800, seed=16)
    out, _ = apply_chain(x, DegradationSpec.default(seed=seed, prob=0.8))
    assert len(out) == len(x)
    assert np.all(np.isfinite(out.samples))
