"""The benchmark's three workloads, their seeded inputs and output checks.

Inputs come from fixed libraries of items (synthetic vocal takes, clips and
listening-study CSVs), each generated from its own seed. The run seed picks,
per round, one variant of every duration slot and the order of the slots, so
every round has the same spread of input sizes while the content changes with
the seed. Each item's outputs are compared with values recorded in
``reference.json`` (written by ``record.py`` from the same item definitions).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from vocalrestore import (
    audio_io,
    cli,
    degrade,
    discriminator,
    generator,
    losses,
    ranking,
    spectral,
)

SR = 48000
MODEL_SEED = 0
# Layer-scale gammas initialise at 1e-6, where the block stack barely reaches
# the output and a broken attention or temporal kernel would pass any check.
BENCH_GAMMA = 0.5
DISC_SEED = 0
LONG_SECONDS = 40.0          # above restore_chunked's 30 s single-pass limit
LONG_TAKES = 6
CLIP_SECONDS = np.linspace(1.0, 6.0, 11)   # odd, so the median is one slot
CLIP_VARIANTS = 3
SYNTH_SECONDS = np.linspace(1.5, 3.0, 20)
SYNTH_VARIANTS = 3
CSV_VARIANTS = 8
OMNI_PARAMS = spectral.StftParams(n_fft=4096, hop=2048)

# Output tolerances. Restore outputs are float32 network results: projections
# may move by 1e-3 of the output RMS (summation order, SIMD width, threads),
# far below what a broken kernel does. The synthesis path is float64.
FP_TOL = 1e-3
LOSS_RTOL = 1e-5
BT_RTOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckError(Exception):
    """An op's output does not match its recorded reference."""


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def synth_voice(seconds: float, seed: int) -> np.ndarray:
    """A seeded sung-vowel-like signal: vibrato harmonics under three formants,
    a syllable envelope and a faint breath-noise floor."""
    rng = _rng(7, seed)
    n = int(round(seconds * SR))
    t = np.arange(n) / SR
    knots = np.arange(0.0, seconds + 0.5, 0.5)
    contour = np.interp(t, knots, rng.uniform(-1.0, 1.0, len(knots)))
    f0_mean = rng.uniform(110.0, 330.0)
    f0 = f0_mean * (1.0 + 0.1 * contour) * (
        1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(4.5, 6.5) * t))
    phase = 2 * np.pi * np.cumsum(f0) / SR
    formants = (rng.uniform(300, 900), rng.uniform(900, 2500), rng.uniform(2500, 3500))
    x = np.zeros(n)
    for h in range(1, 17):
        amp = sum(np.exp(-((h * f0_mean - fk) / 250.0) ** 2) for fk in formants) + 0.3 / h
        x += amp * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    syl = np.arange(0.0, seconds + 0.2, 0.2)
    env = np.interp(t, syl, rng.uniform(0.05, 1.0, len(syl))) ** 2
    x = x * env + 0.003 * rng.standard_normal(n)
    return 0.3 * x / np.max(np.abs(x))


def noisy_take(seconds: float, seed: int) -> audio_io.Waveform:
    """Synthetic vocal plus white noise at 15 dB SNR: the restore input."""
    clean = synth_voice(seconds, seed)
    noise = _rng(8, seed).standard_normal(len(clean))
    noise *= np.sqrt(np.mean(clean ** 2) / np.mean(noise ** 2) / 10 ** 1.5)
    return audio_io.Waveform(clean + noise, SR)


def listening_csv(seed: int) -> str:
    """A seeded pairwise listening study: 8 systems, 600 judgements in three
    categories, about 15% ties."""
    rng = _rng(9, seed)
    systems = [f"sys{i}" for i in range(8)]
    logits = rng.normal(0.0, 1.0, len(systems))
    rows = ["system_a,system_b,outcome,category"]
    for _ in range(600):
        a, b = rng.choice(len(systems), 2, replace=False)
        p = 1.0 / (1.0 + np.exp(logits[b] - logits[a]))
        u = rng.random()
        outcome = "tie" if u < 0.15 else ("a" if rng.random() < p else "b")
        cat = ("speech", "singing", "noisy")[int(rng.integers(3))]
        rows.append(f"{systems[a]},{systems[b]},{outcome},{cat}")
    return "\n".join(rows) + "\n"


def fingerprint(y: np.ndarray, k: int = 8) -> list:
    """k seeded Gaussian projections of y, each scaled to the order of rms(y)."""
    r = _rng(10, len(y)).standard_normal((k, len(y))) / np.sqrt(len(y))
    return [float(v) for v in r @ y]


def rms(y: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(y))))


def gflop_per_frame(config: generator.ModelConfig) -> float:
    """Multiply-add FLOPs of the generator's matrix products and convolutions
    per STFT frame, from the config (elementwise work not counted)."""
    N, nb, ff, F = config.N, config.n_band, config.ff_expansion, config.F
    stem = N * (2 * F + nb)
    attention = 4 * N * N * nb + 2 * N * nb * nb
    swiglu = 3 * ff * N * N * nb
    temporal = 3 * (3 * ff * N * N * nb + config.conv_kernel * N * nb)
    heads = N * N * nb + 4 * F * N
    macs = stem + config.L * (attention + swiglu + temporal) + heads
    return 2.0 * macs / 1e9


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def compare(got: dict, ref: dict, rtol: dict) -> None:
    """Raise CheckError unless every recorded value matches: strings exactly,
    numbers within rtol[key] of the reference; lists are scaled by ref["rms"]."""
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, str):
            ok = have == want
        elif isinstance(want, list):
            ok = np.max(np.abs(np.subtract(have, want))) <= rtol[key] * ref["rms"]
        elif isinstance(want, dict):
            compare(have, want, {k: rtol[key] for k in want})
            continue
        else:
            ok = abs(have - want) <= rtol[key] * abs(want) + 1e-12
        if not ok:
            raise CheckError(f"{key}: got {have}, reference {want}")


def _check_shape(wave: audio_io.Waveform, n: int) -> None:
    if wave.sample_rate != SR or len(wave) != n:
        raise CheckError(f"output {len(wave)} samples at {wave.sample_rate} Hz, want {n} at {SR}")
    if not np.all(np.isfinite(wave.samples)):
        raise CheckError("output has non-finite samples")


class Op:
    """One unit of work: ``run()`` is timed; ``summary(out)`` checks the
    output's shape and exact properties, raising CheckError, and returns the
    values compared with the reference entry ``key``."""

    def __init__(self, key, run, audio_s, summary, rtol):
        self.key, self.run, self.audio_s = key, run, audio_s
        self.summary, self.rtol = summary, rtol

    def check(self, out, reference: dict) -> None:
        compare(self.summary(out), reference[self.key], self.rtol)

    def record(self) -> dict:
        """The reference entry: this op's summary on known-good code."""
        return self.summary(self.run())


class AlternativesOp(Op):
    """An op with more than one correct output: its reference entry maps
    each method's name to that method's summary, and any one must match.
    ``methods`` maps the names to callables computing the output."""

    def __init__(self, key, run, audio_s, summary, rtol, methods):
        super().__init__(key, run, audio_s, summary, rtol)
        self.methods = methods

    def check(self, out, reference: dict) -> None:
        got = self.summary(out)
        errors = []
        for method, want in reference[self.key].items():
            try:
                compare(got, want, self.rtol)
                return
            except CheckError as exc:
                errors.append(f"{method}: {exc}")
        raise CheckError("; ".join(errors))

    def record(self) -> dict:
        return {method: self.summary(fn()) for method, fn in self.methods.items()}


def tail_percentile(n: int) -> float:
    """op_tail_s's percentile for a run of n ops: the highest percentile
    (numpy's linear interpolation) with at least 10 ops above it, or 100
    when no percentile has."""
    return 100.0 * (n - 11) / (n - 1) if n > 10 else 100.0


class Workload:
    name = ""
    # Timed runs do at least min_rounds rounds, for enough ops per run to
    # keep the medians steady (see README.md). op_tail_s is taken at the
    # percentile that has 10 ops above it in a run of that minimum length.
    min_rounds = 1
    tail_pct = 100.0

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        """The repeatable part of set-up: model files, config, first inputs."""

    def prepare(self) -> None:
        """Set-up work that the traced run repeats inside its wrappers."""

    def warmup(self) -> None:
        """One op on a fixed input, to fill lazy caches."""

    def library(self) -> list:
        """Every item the run seed can choose from."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        """The items of round r."""
        raise NotImplementedError

    def item_op(self, item) -> Op:
        raise NotImplementedError

    def ops(self, r: int) -> list:
        return [self.item_op(item) for item in self.round(r)]

    def closing_ops(self) -> list:
        return []

    def model_files(self) -> dict:
        return {}

    def _stratified_round(self, r: int, slots: int, variants: int) -> list:
        """One seeded variant of every duration slot, in seeded order."""
        rng = _rng(11, self.seed, r)
        picks = rng.integers(variants, size=slots)
        return [(int(s), int(picks[s])) for s in rng.permutation(slots)]


class _RestoreModel(Workload):
    """Shared set-up of the two restore workloads: full-config weights from a
    fixed seed, with every layer-scale gamma at BENCH_GAMMA."""

    def setup(self) -> None:
        config = generator.ModelConfig()
        weights = generator.init_weights(config, MODEL_SEED)
        for name, value in weights.items():
            if name.endswith(".gamma"):
                value[:] = BENCH_GAMMA
        self.weights_path = os.path.join(self.workdir, "model.bin")
        self.config_path = os.path.join(self.workdir, "model.cfg")
        generator.save_weights(weights, self.weights_path)
        with open(self.config_path, "w") as fh:
            fh.write(config.to_text())
        with open(self.config_path) as fh:
            self.config = generator.ModelConfig.from_text(fh.read())
        if self.config != config:
            raise CheckError("config did not survive its text round trip")
        self._inputs = {}
        self.ops(0)

    def model_files(self) -> dict:
        return {"weights_sha256": sha256_file(self.weights_path),
                "config_sha256": sha256_file(self.config_path)}


class RestoreLong(_RestoreModel):
    """``vocalrestore restore`` in-process on 40 s takes; an op is one CLI call
    including weight loading, WAV read and atomic WAV write."""

    name = "restore_long"

    def _cli_restore(self, infile: str, outfile: str):
        argv = ["restore", "--in", infile, "--out", outfile,
                "--weights", self.weights_path, "--config", self.config_path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def _read_output(self, result, outfile: str, n: int) -> audio_io.Waveform:
        code, err = result
        if code != 0:
            raise CheckError(f"restore exited {code}: {err}")
        wave = audio_io.read_wav(outfile)
        _check_shape(wave, n)
        return wave

    def warmup(self) -> None:
        infile = os.path.join(self.workdir, "warmup.wav")
        outfile = os.path.join(self.workdir, "warmup_out.wav")
        wave = noisy_take(2.0, 999)
        audio_io.write_wav(wave, infile)
        self._read_output(self._cli_restore(infile, outfile), outfile, len(wave))

    def library(self) -> list:
        return list(range(LONG_TAKES))

    def round(self, r: int) -> list:
        return [int(_rng(12, self.seed).integers(LONG_TAKES) + r) % LONG_TAKES]

    def _exact_restore(self, infile: str, outfile: str):
        """One restore() pass over the whole take, written like the CLI
        writes: what exact halo-tiled restoration computes."""
        wave = generator.restore(audio_io.read_wav(infile),
                                 generator.load_weights(self.weights_path), self.config)
        audio_io.write_wav(wave, outfile)
        return 0, ""

    def item_op(self, take: int) -> Op:
        infile = os.path.join(self.workdir, f"take{take}.wav")
        if take not in self._inputs:
            audio_io.write_wav(noisy_take(LONG_SECONDS, 1000 + take), infile)
            self._inputs[take] = infile
        outfile = os.path.join(self.workdir, "restored.wav")
        n = int(round(LONG_SECONDS * SR))

        def summary(result):
            y = self._read_output(result, outfile, n).samples
            return {"fp": fingerprint(y), "rms": rms(y)}

        def run():
            return self._cli_restore(infile, outfile)

        # The seed commit's 30 s chunks with 1 s crossfades and a single pass
        # over the whole take agree on the first 26 s only; either is correct.
        return AlternativesOp(
            f"take{take}", run, LONG_SECONDS, summary, {"fp": FP_TOL, "rms": FP_TOL},
            {"chunked": run, "exact": lambda: self._exact_restore(infile, outfile)})


class RestoreClips(_RestoreModel):
    """``generator.restore`` over 1-6 s clips with the model loaded once in
    set-up; an op is one clip."""

    name = "restore_clips"
    min_rounds = 2
    tail_pct = tail_percentile(min_rounds * len(CLIP_SECONDS))

    def setup(self) -> None:
        super().setup()
        self.prepare()

    def prepare(self) -> None:
        self.weights = generator.load_weights(self.weights_path)

    def warmup(self) -> None:
        # The longest clip, so the first round does not pay for heap growth.
        generator.restore(noisy_take(CLIP_SECONDS[-1], 999), self.weights, self.config)

    def library(self) -> list:
        return [(s, v) for s in range(len(CLIP_SECONDS)) for v in range(CLIP_VARIANTS)]

    def round(self, r: int) -> list:
        return self._stratified_round(r, len(CLIP_SECONDS), CLIP_VARIANTS)

    def item_op(self, item) -> Op:
        slot, variant = item
        if item not in self._inputs:
            seed = 2000 + slot * CLIP_VARIANTS + variant
            self._inputs[item] = noisy_take(float(CLIP_SECONDS[slot]), seed)
        wave = self._inputs[item]

        def summary(y):
            _check_shape(y, len(wave))
            return {"fp": fingerprint(y.samples), "rms": rms(y.samples)}

        return Op(f"clip{slot}.{variant}",
                  lambda: generator.restore(wave, self.weights, self.config),
                  wave.duration, summary, {"fp": FP_TOL, "rms": FP_TOL})


LOSS_KEYS = ("wav", "spec", "omni", "recon", "d_loss", "adv", "fm")


class SynthScore(Workload):
    """Training-data synthesis and scoring with no generator: degrade chain,
    replay, reconstruction loss, discriminator and GAN losses per clip, closed
    by one Bradley-Terry ranking of a listening-study CSV."""

    name = "synth_score"
    min_rounds = 2
    tail_pct = tail_percentile(min_rounds * len(SYNTH_SECONDS) + 1)   # + the ranking op

    def setup(self) -> None:
        self.dconfig = discriminator.DiscriminatorConfig()
        self.dweights = discriminator.init_discriminator_weights(self.dconfig, DISC_SEED)
        self._inputs = {}
        self.ops(0)
        self.csv_variant = int(_rng(13, self.seed).integers(CSV_VARIANTS))
        self.csv_text = listening_csv(self.csv_variant)

    def _score(self, clean: audio_io.Waveform, chain_seed: int):
        spec = degrade.DegradationSpec.default(seed=chain_seed, prob=1.0)
        degraded, trace = degrade.apply_chain(clean, spec)
        trace_text = trace.to_json_lines()
        replayed = degrade.replay_trace(clean, degrade.StageTrace.from_json_lines(trace_text))
        report = losses.reconstruction_loss(
            degraded, clean,
            spectral.stft(degraded, OMNI_PARAMS), spectral.stft(clean, OMNI_PARAMS))
        state = discriminator.SpectralNormState()
        real = discriminator.discriminator_forward(clean, self.dweights, self.dconfig, state)
        fake = discriminator.discriminator_forward(degraded, self.dweights, self.dconfig, state)
        real_scores = [b.score for b in real]
        fake_scores = [b.score for b in fake]
        report.d_loss = losses.hinge_d_loss(real_scores, fake_scores)
        report.adv = losses.adv_loss(fake_scores)
        report.fm = losses.feature_matching([b.features for b in real],
                                            [b.features for b in fake])
        return degraded, replayed, trace_text, report

    def warmup(self) -> None:
        self._score(audio_io.Waveform(synth_voice(SYNTH_SECONDS[-1], 999), SR), 999)
        ranking.rank_report(ranking.ComparisonSet.from_csv(listening_csv(999)))

    def library(self) -> list:
        return [(s, v) for s in range(len(SYNTH_SECONDS)) for v in range(SYNTH_VARIANTS)]

    def round(self, r: int) -> list:
        return self._stratified_round(r, len(SYNTH_SECONDS), SYNTH_VARIANTS)

    def item_op(self, item) -> Op:
        slot, variant = item
        if item not in self._inputs:
            seed = 3000 + slot * SYNTH_VARIANTS + variant
            self._inputs[item] = audio_io.Waveform(
                synth_voice(float(SYNTH_SECONDS[slot]), seed), SR)
        clean = self._inputs[item]
        chain_seed = 4000 + slot * SYNTH_VARIANTS + variant

        def summary(result):
            degraded, replayed, trace_text, report = result
            if not np.array_equal(degraded.samples, replayed.samples):
                raise CheckError("replay_trace is not bit-exact against apply_chain")
            values = {k: getattr(report, k) for k in LOSS_KEYS}
            values["trace_sha256"] = hashlib.sha256(trace_text.encode()).hexdigest()
            return values

        return Op(f"synth{slot}.{variant}", lambda: self._score(clean, chain_seed),
                  clean.duration, summary, dict.fromkeys(LOSS_KEYS, LOSS_RTOL))

    def csv_op(self, variant: int, text: str) -> Op:
        def summary(report):
            values = {"overall": report["overall"]["strengths"]}
            for label, block in report["categories"].items():
                values[label] = block.get("strengths", block.get("error"))
            return values

        return Op(f"csv{variant}",
                  lambda: ranking.rank_report(ranking.ComparisonSet.from_csv(text)),
                  0.0, summary, dict.fromkeys(("overall", "speech", "singing", "noisy"), BT_RTOL))

    def closing_ops(self) -> list:
        return [self.csv_op(self.csv_variant, self.csv_text)]


WORKLOADS = {w.name: w for w in (RestoreLong, RestoreClips, SynthScore)}
