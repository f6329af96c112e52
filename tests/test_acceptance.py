"""End-to-end acceptance suite.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line so the whole gate can be read off the pytest -s output.
"""

import json
import time

import numpy as np
import pytest

from vocalrestore.audio_io import Waveform
from vocalrestore.bandsplit import ENVELOPE_EPS, band_envelope, mel_band_layout
from vocalrestore.cli import run_bench
from vocalrestore.degrade import DegradationSpec, add_noise, apply_chain, clip, pink_noise, replay_trace
from vocalrestore.errors import DegenerateError
from vocalrestore.generator import generator_forward, init_weights, toy_config, ModelConfig
from vocalrestore.losses import (
    LossReport,
    LossWeights,
    feature_matching,
    generator_total,
    hinge_d_loss,
    multi_res_spec_l1,
    omni_phase_loss,
    reconstruction_loss,
    wav_l1,
)
from vocalrestore.nncore import attention_core
from vocalrestore.ranking import Comparison, ComparisonSet, fit_bradley_terry, goodness_of_fit
from vocalrestore.spectral import StftParams, istft, stft

from oracles import naive_dft_fast


def _report(n, name, ok=True):
    print(f"\ncriterion {n} ({name}): {'PASS' if ok else 'FAIL'}")


class _Gate:
    """Prints the criterion verdict even when an assert trips."""

    def __init__(self, n, name):
        self.n, self.name = n, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.n, self.name, ok=exc_type is None)
        return False


def test_criterion_1_stft():
    with _Gate(1, "stft oracle + round trip"):
        rng = np.random.default_rng(0)
        for n_fft in (8, 16, 512):
            params = StftParams(n_fft=n_fft, hop=n_fft // 2)
            x = Waveform(rng.standard_normal(2 * n_fft), 48000)
            spec = stft(x, params)
            window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
            padded = np.pad(x.samples, n_fft // 2, mode="reflect")
            for t in range(spec.n_frames):
                frame = padded[t * params.hop : t * params.hop + n_fft] * window
                ref = naive_dft_fast(frame)
                rel = np.max(np.abs(spec.bins[:, t] - ref)) / max(
                    np.max(np.abs(ref)), 1e-30
                )
                assert rel < 1e-9

        params = StftParams(n_fft=4096, hop=2048)
        for seed in range(100):
            x = Waveform(np.random.default_rng(seed).standard_normal(48000), 48000)
            rec = istft(stft(x, params), 48000, 48000)
            assert np.max(np.abs(rec.samples - x.samples)) < 1e-6


def test_criterion_2_band_partition():
    with _Gate(2, "band partition"):
        rng = np.random.default_rng(1)
        for _ in range(200):
            F = int(rng.integers(4, 4000))
            n_band = int(rng.integers(1, F + 1))
            sr = int(rng.choice([8000, 16000, 24000, 44100, 48000]))
            layout = mel_band_layout(F, n_band, sr)
            w = np.array(layout.widths)
            assert w.min() >= 1
            assert w.sum() == F
        assert mel_band_layout(100, 1, 48000).widths == (100,)
        assert mel_band_layout(100, 100, 48000).widths == tuple([1] * 100)


def test_criterion_3_envelope():
    with _Gate(3, "band envelope"):
        eps = ENVELOPE_EPS
        layout = mel_band_layout(129, 8, 16000)
        params = StftParams(n_fft=256, hop=128)
        zero = stft(Waveform(np.zeros(2000), 16000), params)
        env0 = band_envelope(zero, layout)
        assert np.allclose(env0, np.sqrt(eps), rtol=0, atol=1e-15)

        x = np.random.default_rng(2).standard_normal(2000)
        e1 = band_envelope(stft(Waveform(x, 16000), params), layout)
        e10 = band_envelope(stft(Waveform(10 * x, 16000), params), layout)
        ratio = e10 / e1
        assert np.all(ratio >= 10 - np.sqrt(eps))
        assert np.all(ratio <= 10 + np.sqrt(eps))


def test_criterion_4_generator_shape():
    with _Gate(4, "generator shape contract"):
        cfg = toy_config()          # n_fft=256, n_band=8, N=16, L=2
        weights = init_weights(cfg, seed=0)
        params = StftParams(n_fft=cfg.n_fft, hop=cfg.hop)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = Waveform(0.1 * rng.standard_normal(int(rng.integers(512, 4000))),
                         cfg.sample_rate)
            spec = stft(x, params)
            out1 = generator_forward(spec, weights, cfg)
            out2 = generator_forward(spec, weights, cfg)
            assert out1.bins.shape == spec.bins.shape
            assert np.all(np.isfinite(out1.bins.real))
            assert np.all(np.isfinite(out1.bins.imag))
            assert np.array_equal(out1.bins, out2.bins)


def test_criterion_5_attention_scaling():
    """Fits the attention-core cost to t ~ nb^alpha * T^beta over a grid and
    checks alpha = 2.0 +- 0.3, beta = 1.0 +- 0.3.

    The grid is the regime the generator runs: the default ModelConfig
    head layout (4 heads of dim 32), float32 inputs as in the forward
    pass, and band counts 32, 64, 128 bracketing the default n_band = 64,
    at 16, 32, 64 frames. Bracketing the default band count is a choice
    of this test: the quadratic term is an asymptotic statement. In
    float32 at head dim 32, with the softmax reducing the key-major scores
    across rows (axis -2), it dominates from about 32 bands; below that
    the per-GEMM dispatch and the per-query reductions (linear in nb) cost
    as much as the quadratic arithmetic, so a fit there measures NumPy
    overhead. Short last-axis reductions would add such a linear cost
    even inside this grid.

    Each cell repeats the call for at least ~25 ms per timing. All nine
    cells are timed in interleaved rounds and each keeps its minimum, so
    a slow spell on the host hits every cell alike instead of one.
    """
    with _Gate(5, "attention scaling law"):
        cfg = ModelConfig()
        heads, d = cfg.heads, cfg.N // cfg.heads
        nbs = (cfg.n_band // 2, cfg.n_band, 2 * cfg.n_band)
        Ts = (16, 32, 64)
        rounds = 5
        rng = np.random.default_rng(3)

        cells = []
        for nb in nbs:
            for T in Ts:
                qkv = rng.standard_normal((3, T, heads, nb, d)).astype(np.float32)
                attention_core(*qkv)
                t0 = time.perf_counter()
                attention_core(*qkv)
                est = time.perf_counter() - t0
                cells.append((nb, T, qkv, max(3, int(0.025 / max(est, 1e-9)))))

        best = np.full(len(cells), np.inf)
        for _ in range(rounds):
            for i, (_, _, qkv, reps) in enumerate(cells):
                t0 = time.perf_counter()
                for _ in range(reps):
                    attention_core(*qkv)
                best[i] = min(best[i], (time.perf_counter() - t0) / reps)

        rows = [[1.0, np.log(nb), np.log(T)] for nb, T, _, _ in cells]
        logs = np.log(best)
        coef, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(logs), rcond=None)
        alpha, beta = coef[1], coef[2]
        print(f"\nattention scaling fit: nb exponent {alpha:.3f}, T exponent {beta:.3f}")
        assert abs(alpha - 2.0) <= 0.3
        assert abs(beta - 1.0) <= 0.3


def test_criterion_6_loss_identities():
    with _Gate(6, "loss identities"):
        x = Waveform(0.1 * np.random.default_rng(4).standard_normal(8192), 48000)
        params = StftParams(n_fft=512, hop=128)
        spec = stft(x, params)
        assert wav_l1(x, x) == 0.0
        assert multi_res_spec_l1(x, x) == 0.0
        assert omni_phase_loss(spec, spec) == 0.0
        report = reconstruction_loss(x, x, spec, spec)
        assert report.recon == 0.0

        assert hinge_d_loss([1.0], [-1.0]) == 0.0
        assert hinge_d_loss([0.0], [0.0]) == 2.0

        rng = np.random.default_rng(5)
        feats = [[100.0 * rng.standard_normal((4, 6)) for _ in range(3)]]
        assert feature_matching(feats, feats) == 0.0
        other = [[f + 10.0 * rng.standard_normal(f.shape) for f in feats[0]]]
        base = feature_matching(feats, other)
        scaled = feature_matching(
            [[7.0 * f for f in feats[0]]], [[7.0 * f for f in other[0]]]
        )
        assert abs(scaled - base) < 1e-9

        for _ in range(20):
            r = LossReport(
                wav=rng.random(), spec=rng.random(), omni=rng.random(),
                adv=rng.standard_normal(), fm=rng.random(),
            )
            w = LossWeights(
                lambda_wav=rng.random(), lambda_spec=rng.random(),
                lambda_omni=rng.random(), lambda_adv=rng.random(),
                lambda_fm=rng.random(),
            )
            r.recon = (
                w.lambda_wav * r.wav + w.lambda_spec * r.spec + w.lambda_omni * r.omni
            )
            total = generator_total(r, w)
            hand = r.recon + w.lambda_adv * r.adv + w.lambda_fm * r.fm
            assert abs(total - hand) < 1e-12


def test_criterion_7_degradation_determinism():
    with _Gate(7, "degradation determinism"):
        x = Waveform(
            0.1 * np.random.default_rng(6).standard_normal(14400), 48000
        )
        for seed in range(100):
            spec = DegradationSpec.default(seed=seed, prob=1.0)
            out1, trace1 = apply_chain(x, spec)
            out2, trace2 = apply_chain(x, spec)
            assert out1.samples.tobytes() == out2.samples.tobytes()
            assert trace1.entries == trace2.entries
            replayed = replay_trace(x, trace1)
            assert replayed.samples.tobytes() == out1.samples.tobytes()
            # stage-by-stage: length-preserving and NaN-free
            cur = x
            partial = type(trace1)()
            for entry in trace1.entries:
                partial.entries.append(entry)
                stage_out = replay_trace(x, partial)
                assert len(stage_out) == len(x)
                assert np.all(np.isfinite(stage_out.samples))

        for snr_db in (-5.0, 0.0, 12.5, 30.0):
            noise = Waveform(pink_noise(len(x), seed=1), 48000)
            mixed = add_noise(x, noise, snr_db)
            added = mixed.samples - x.samples
            measured = 10.0 * np.log10(
                np.mean(x.samples**2) / np.mean(added**2)
            )
            assert abs(measured - snr_db) < 0.01

        loud = Waveform(np.random.default_rng(7).standard_normal(4000), 48000)
        for curve in ("hard", "tanh", "cubic"):
            out = clip(loud, curve, drive=8.0)
            assert np.max(np.abs(out.samples)) <= 1.0 + 1e-12


def test_criterion_8_bradley_terry():
    with _Gate(8, "bradley-terry"):
        records = [Comparison("a", "b", "a")] * 3 + [Comparison("a", "b", "b")]
        table = fit_bradley_terry(ComparisonSet(records))
        ratio = table.strengths["a"] / table.strengths["b"]
        assert abs(ratio - 3.0) < 1e-6

        # data exactly on the model: the MM fixed point lands on the truth
        perfect = (
            [Comparison("a", "b", "a")] * 3 + [Comparison("a", "b", "b")]
            + [Comparison("a", "c", "a")] * 3 + [Comparison("a", "c", "b")]
            + [Comparison("b", "c", "a"), Comparison("b", "c", "b")]
        )
        data = ComparisonSet(perfect)
        t = fit_bradley_terry(data)
        r2, mae, rmse = goodness_of_fit(t, data)
        assert abs(r2 - 1.0) < 1e-9 and mae < 1e-9 and rmse < 1e-9

        truth = {f"s{i}": 2.0 ** (i - 3) for i in range(7)}
        names = list(truth)
        good = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            recs = []
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    p = truth[a] / (truth[a] + truth[b])
                    draws = rng.random(250) < p
                    recs += [Comparison(a, b, "a" if d else "b") for d in draws]
            try:
                table = fit_bradley_terry(ComparisonSet(recs))
                r2, _, _ = goodness_of_fit(table, ComparisonSet(recs))
            except DegenerateError:
                continue
            if r2 >= 0.9:
                good += 1
        print(f"\nbradley-terry replications with R^2 >= 0.9: {good}/100")
        assert good >= 95


def test_criterion_9_benchmark():
    with _Gate(9, "benchmark harness"):
        cfg = ModelConfig()          # n_fft=4096, n_band=64, N=128, L=6
        weights = init_weights(cfg, seed=0)
        report = run_bench(weights, cfg, seconds=10.0, runs=30, warmup=2)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "runs", "median_s", "p90_s", "mean_s", "audio_s", "rtf", "threads",
        }
        assert payload["runs"] == 30
        assert payload["median_s"] <= payload["p90_s"]
        print(f"\nbench: median {report.median_s:.3f}s for 10s audio, RTF {report.rtf:.2f}")
        assert report.rtf > 1.0


def test_criterion_10_metric_disclaimer():
    with _Gate(10, "listening-metric disclaimer"):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        assert "DNSMOS" in readme and "UTMOS" in readme
        assert "out of scope" in readme.lower()
        for py in (root / "src" / "vocalrestore").glob("*.py"):
            text = py.read_text()
            for metric in ("DNSMOS", "UTMOS"):
                assert metric not in text, f"{py} mentions {metric}"
