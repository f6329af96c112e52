import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from vocalrestore import blas, cli, degrade, generator
from vocalrestore.audio_io import Waveform, read_wav, write_wav
from vocalrestore.cli import (
    EXIT_DISCONNECTED,
    EXIT_LENGTH,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_SAMPLE_RATE,
    build_parser,
    main,
    run_bench,
)
from vocalrestore.generator import ModelConfig, init_weights, save_weights, toy_config


@pytest.fixture()
def model_files(tmp_path):
    cfg = toy_config()
    weights = init_weights(cfg, seed=0)
    wpath = tmp_path / "weights.bin"
    cpath = tmp_path / "model.cfg"
    save_weights(weights, wpath)
    cpath.write_text(cfg.to_text())
    return str(wpath), str(cpath), cfg


def _write_noise(path, n=4000, sr=16000, seed=0):
    x = 0.1 * np.random.default_rng(seed).standard_normal(n)
    write_wav(Waveform(x, sr), path)
    return x


def test_restore_round_trip(model_files, tmp_path, capsys, monkeypatch):
    wpath, cpath, cfg = model_files
    inp, out = str(tmp_path / "in.wav"), str(tmp_path / "out.wav")
    _write_noise(inp, sr=cfg.sample_rate)
    # 32 frames in chunks of 16: the report gives the pushes restore() ran
    monkeypatch.setattr(generator, "CHUNK_FRAMES", 16)
    code = main(["restore", "--in", inp, "--out", out,
                 "--weights", wpath, "--config", cpath])
    assert code == EXIT_OK
    restored = read_wav(out)
    assert len(restored) == 4000
    report = capsys.readouterr().out
    assert "RTF" in report
    assert "chunks=2 latency_frames=10" in report


def test_restore_missing_input(model_files, tmp_path):
    wpath, cpath, _ = model_files
    code = main(["restore", "--in", str(tmp_path / "nope.wav"),
                 "--out", str(tmp_path / "o.wav"),
                 "--weights", wpath, "--config", cpath])
    assert code == EXIT_MISSING_FILE


def test_restore_sample_rate_mismatch(model_files, tmp_path):
    wpath, cpath, _ = model_files
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, sr=48000)   # model expects 16000
    code = main(["restore", "--in", inp, "--out", str(tmp_path / "o.wav"),
                 "--weights", wpath, "--config", cpath])
    assert code == EXIT_SAMPLE_RATE
    assert not os.path.exists(tmp_path / "o.wav")


def test_restore_config_weights_mismatch(model_files, tmp_path, capsys):
    """A config that does not match the weights is a manifest error naming
    the tensors, not a shape error deep in the forward pass."""
    wpath, _, cfg = model_files
    cpath = tmp_path / "six_bands.cfg"
    cpath.write_text(toy_config(n_band=6).to_text())   # weights have 8 bands
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, sr=cfg.sample_rate)
    code = main(["restore", "--in", inp, "--out", str(tmp_path / "o.wav"),
                 "--weights", wpath, "--config", str(cpath)])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing=[]" in err and "extra=[" in err and "head.band6" in err


def test_degrade_deterministic(tmp_path):
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, n=9600, sr=48000)
    out1, out2 = str(tmp_path / "a.wav"), str(tmp_path / "b.wav")
    trace = str(tmp_path / "trace.jsonl")
    assert main(["degrade", "--in", inp, "--out", out1,
                 "--seed", "7", "--trace-out", trace]) == EXIT_OK
    assert main(["degrade", "--in", inp, "--out", out2, "--seed", "7",
                 "--trace-out", str(tmp_path / "t2.jsonl")]) == EXIT_OK
    a, b = read_wav(out1), read_wav(out2)
    assert np.array_equal(a.samples, b.samples)
    lines = [json.loads(l) for l in pathlib.Path(trace).read_text().splitlines() if l.strip()]
    for entry in lines:
        assert {"stage", "params"} <= set(entry)


def test_degrade_where_a_window_tail_covers_the_last_sample(tmp_path):
    """At 96255 samples (511 past a multiple of 512) the chain --seed 2
    draws resynthesizes spectral_corrupt at n_fft 1024, hop 512, where only
    the last frame's window tail reaches the last sample; the STFT's extra
    frame keeps it invertible."""
    inp, out = str(tmp_path / "in.wav"), str(tmp_path / "out.wav")
    _write_noise(inp, n=96255, sr=48000)
    assert main(["degrade", "--in", inp, "--out", out, "--seed", "2"]) == EXIT_OK
    y = read_wav(out)
    assert len(y) == 96255 and np.all(np.isfinite(y.samples))


_UNWRITABLE_RATE = 2**30 + 5


def _write_unwritable_rate_pcm16(path):
    """A PCM16 input at 2**30 + 5 Hz: it reads, but a float32 WAV's u32 byte
    rate (4 bytes a sample) cannot hold that rate."""
    rate = _UNWRITABLE_RATE
    data = (np.random.default_rng(1).integers(-3000, 3000, 3000)).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _assert_rate_refused(tmp_path, capsys, *kept):
    assert capsys.readouterr().err.splitlines() == [
        f"error: sample rate {_UNWRITABLE_RATE} Hz is above the float32 WAV limit of "
        "1073741823 Hz (its byte rate is a u32)"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["in.wav", *kept])


def test_degrade_refuses_a_rate_the_writer_cannot_store(tmp_path, capsys, monkeypatch):
    """An input at a rate the writer cannot store is refused right after it
    is read, before any stage runs, with one `error:` line that names the
    rate and the limit, and no output is left."""
    def no_stage(*args):
        raise AssertionError("a degradation stage ran")

    monkeypatch.setattr(degrade, "replay_trace", no_stage)
    inp = tmp_path / "in.wav"
    _write_unwritable_rate_pcm16(inp)
    assert main(["degrade", "--in", str(inp), "--out", str(tmp_path / "out.wav"),
                 "--seed", "3"]) == 1
    _assert_rate_refused(tmp_path, capsys)


def test_restore_refuses_a_rate_the_writer_cannot_store(tmp_path, capsys, monkeypatch):
    """restore refuses the same input before the forward runs, with a model
    at that rate."""
    def no_forward(*args):
        raise AssertionError("the forward ran")

    monkeypatch.setattr(cli, "restore_chunked", no_forward)
    cfg = toy_config(sample_rate=_UNWRITABLE_RATE)
    save_weights(init_weights(cfg, seed=0), tmp_path / "w.bin")
    (tmp_path / "m.cfg").write_text(cfg.to_text())
    inp = tmp_path / "in.wav"
    _write_unwritable_rate_pcm16(inp)
    assert main(["restore", "--in", str(inp), "--out", str(tmp_path / "out.wav"),
                 "--weights", str(tmp_path / "w.bin"), "--config", str(tmp_path / "m.cfg")]) == 1
    _assert_rate_refused(tmp_path, capsys, "w.bin", "m.cfg")


def test_degrade_with_spec_file(tmp_path):
    from vocalrestore.degrade import DegradationSpec

    inp = str(tmp_path / "in.wav")
    _write_noise(inp, n=9600, sr=48000)
    spec_path = tmp_path / "chain.cfg"
    spec_path.write_text(DegradationSpec.default(seed=3, prob=1.0).to_text())
    out = str(tmp_path / "d.wav")
    assert main(["degrade", "--in", inp, "--out", out,
                 "--spec", str(spec_path),
                 "--trace-out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    assert len(read_wav(out)) == 9600


def test_degrade_spec_missing_range(tmp_path, capsys):
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, n=9600, sr=48000)
    spec_path = tmp_path / "chain.cfg"
    spec_path.write_text("[clip]\nprob = 1.0\n")
    code = main(["degrade", "--in", inp, "--out", str(tmp_path / "d.wav"),
                 "--spec", str(spec_path)])
    assert code == 1
    assert "clip: unknown keys [], missing ranges ['drive']" in capsys.readouterr().err


def test_eval_json_keys(tmp_path, capsys):
    ref, est = str(tmp_path / "r.wav"), str(tmp_path / "e.wav")
    _write_noise(ref, seed=1)
    _write_noise(est, seed=2)
    code = main(["eval", "--ref", ref, "--est", est, "--n-fft", "256", "--hop", "128"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"wav", "spec", "omni", "recon"}
    assert all(np.isfinite(v) for v in payload.values())


def test_eval_identical_files(tmp_path, capsys):
    ref = str(tmp_path / "r.wav")
    _write_noise(ref, seed=3)
    main(["eval", "--ref", ref, "--est", ref, "--n-fft", "256", "--hop", "128"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["wav"] == 0.0 and payload["recon"] == 0.0


def test_eval_length_mismatch(tmp_path):
    ref, est = str(tmp_path / "r.wav"), str(tmp_path / "e.wav")
    _write_noise(ref, n=4000)
    _write_noise(est, n=5000)
    assert main(["eval", "--ref", ref, "--est", est]) == EXIT_LENGTH


def test_rank_disconnected(tmp_path):
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(
        "system_a,system_b,outcome\nx,y,a\nx,y,b\nu,v,a\nu,v,b\n"
    )
    assert main(["rank", "--csv", str(csv_path)]) == EXIT_DISCONNECTED


def test_rank_report(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["system_a,system_b,outcome"]
    for a, b, p in [("x", "y", 0.75), ("y", "z", 0.75), ("x", "z", 0.9)]:
        for _ in range(60):
            rows.append(f"{a},{b},{'a' if rng.random() < p else 'b'}")
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    assert main(["rank", "--csv", str(csv_path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["overall"]["ranking"] == ["x", "y", "z"]
    assert payload["overall"]["fit"]["r2"] > 0.8


def test_rank_missing_csv(tmp_path):
    assert main(["rank", "--csv", str(tmp_path / "no.csv")]) == EXIT_MISSING_FILE


def test_bench_report(model_files, tmp_path):
    wpath, cpath, _ = model_files
    out = tmp_path / "bench.json"
    code = main(["bench", "--weights", wpath, "--config", cpath,
                 "--seconds", "0.25", "--runs", "3", "--warmup", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "runs", "median_s", "p90_s", "mean_s", "audio_s", "rtf", "threads",
    }
    assert payload["runs"] == 3
    assert payload["rtf"] == pytest.approx(payload["audio_s"] / payload["median_s"])


def test_bench_reports_blas_threads_in_effect(model_files):
    """The report's threads are the ones the BLAS probe reads, not a request."""
    wpath, _, cfg = model_files
    from vocalrestore.generator import load_weights

    report = run_bench(load_weights(wpath), cfg, seconds=0.25, runs=1, warmup=0)
    assert report.threads == blas.threads() >= 0


def test_run_bench_deterministic_input(model_files):
    wpath, cpath, cfg = model_files
    from vocalrestore.generator import load_weights

    weights = load_weights(wpath)
    r1 = run_bench(weights, cfg, seconds=0.25, runs=2, warmup=0)
    assert r1.audio_s == 0.25 and r1.runs == 2
    assert r1.rtf > 0 and np.isfinite(r1.median_s)


def test_atomic_output_no_partial_file(model_files, tmp_path):
    """A failing restore never leaves a partial output file behind."""
    wpath, cpath, _ = model_files
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, sr=48000)   # wrong rate -> fails before writing
    out = str(tmp_path / "out.wav")
    main(["restore", "--in", inp, "--out", out,
          "--weights", wpath, "--config", cpath])
    assert not os.path.exists(out)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_eval_grid_defaults_to_model():
    """eval's STFT grid defaults to the model's own."""
    args = build_parser().parse_args(["eval", "--ref", "a.wav", "--est", "b.wav"])
    grid = generator.ModelConfig().stft_params
    assert (args.n_fft, args.hop) == (grid.n_fft, grid.hop)


def test_help_flags_documented(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "--help"])
    text = capsys.readouterr().out
    assert "default 30" in text and "default 10" in text


def test_corrupt_weights_exit_code(model_files, tmp_path):
    _, cpath, _ = model_files
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    inp = str(tmp_path / "in.wav")
    _write_noise(inp)
    code = main(["restore", "--in", inp, "--out", str(tmp_path / "o.wav"),
                 "--weights", str(bad), "--config", cpath])
    assert code == 1


def _weights_bytes(manifest) -> bytes:
    text = json.dumps(manifest).encode()
    return generator.WEIGHT_MAGIC + struct.pack("<I", len(text)) + text + bytes(16)


@pytest.mark.parametrize("weights, line, extra, cause", [
    (generator.WEIGHT_MAGIC, None, "", "ends before the manifest length"),
    (_weights_bytes([{"name": "a", "shape": [2], "dtype": "f32"}]), None, "",
     "KeyError('offset')"),
    (_weights_bytes({"a": {"shape": [2], "offset": 0}}), None, "", "manifest is a JSON dict"),
    (_weights_bytes([{"name": ["a"], "shape": [2], "dtype": "f32", "offset": 0}]), None, "",
     "name ['a'] is not a string"),
    (_weights_bytes([{"name": "a", "shape": [2], "dtype": "f32", "offset": -16}]), None, "",
     "offset -16 is negative"),
    (_weights_bytes([{"name": "a", "shape": [-1, -2], "dtype": "f32", "offset": 0}]), None, "",
     "shape [-1, -2] has a negative entry"),
    (_weights_bytes([{"name": "a", "shape": [-2], "dtype": "f32", "offset": 0}]), None, "",
     "shape [-2] has a negative entry"),
    (_weights_bytes([{"name": "a", "shape": [2], "dtype": "f64", "offset": 0}]), None, "",
     "bad.bin: malformed manifest entry {'name': 'a', 'shape': [2], 'dtype': 'f64', "
     "'offset': 0}: ValueError(\"dtype 'f64' is not 'f32'\")"),
    (_weights_bytes([{"name": "a", "shape": [2**32, 2**32], "dtype": "f32", "offset": 0}]),
     None, "", "bad.bin: truncated payload for a"),
    (None, "heads = 0", "", "heads"),
    (None, "heads = two", "", "config key 'heads'"),
    (None, None, "conv_kernel = 3\n", "unknown config key 'conv_kernel'"),
    (None, None, "dilation_cap = 8\n", "unknown config key 'dilation_cap'"),
    (None, None, "ff_expansion = 2\n", "unknown config key 'ff_expansion'"),
    (None, None, "eps = 1e-08\n", "unknown config key 'eps'"),
    (None, None, "N = 32\n", "config key 'N' is listed twice"),
    (None, "sample_rate = 0", "", "sample_rate must be >= 1, got 0"),
], ids=["ends_after_magic", "entry_without_offset", "manifest_object", "name_list",
        "negative_offset", "negative_shape_pair", "negative_shape", "dtype_f64", "shape_overflow",
        "heads_0", "heads_two", "removed_conv_kernel", "removed_dilation_cap",
        "removed_ff_expansion", "removed_eps", "repeated_key", "sample_rate_0"])
def test_malformed_model_files(model_files, tmp_path, capsys, weights, line, extra, cause):
    """A malformed weights file or config (`line` in place of its key's line,
    `extra` lines appended) exits 1 with `error: <cause>`, not a traceback."""
    wpath, cpath, cfg = model_files
    if weights is not None:
        wpath = tmp_path / "bad.bin"
        wpath.write_bytes(weights)
    cpath = tmp_path / "bad.cfg"
    text = cfg.to_text()
    if line is not None:
        key = line.partition(" =")[0]
        text = text.replace(f"{key} = {getattr(cfg, key)}\n", f"{line}\n")
    cpath.write_text(text + extra)
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, sr=cfg.sample_rate)
    code = main(["restore", "--in", inp, "--out", str(tmp_path / "o.wav"),
                 "--weights", str(wpath), "--config", str(cpath)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and cause in err, err
    assert "Traceback" not in err


_MODEL = ["--weights", "weights.bin", "--config", "model.cfg"]
_DEGRADE = ["degrade", "--in", "a48.wav", "--out", "o.wav"]
_SPEC = _DEGRADE + ["--spec", "chain.spec"]
_BENCH = ["bench", *_MODEL, "--seconds", "0.1"]


@pytest.mark.parametrize("argv, files, code, cause", [
    (["eval", "--ref", "a16.wav", "--est", "a48.wav", "--n-fft", "256", "--hop", "128"], {},
     EXIT_SAMPLE_RATE, "sample rates differ: 48000 vs 16000 Hz"),
    (["rank", "--csv", "c.csv"], {"c.csv": "system_a,system_b,outcome\nx,y,a\nx,y\n"},
     1, "CSV line 3: no value for outcome"),
    (_SPEC, {"chain.spec": "seed = x\n"}, 1, "seed: expected int, got 'x'"),
    (_SPEC, {"chain.spec": "[clip]\nprob = half\ndrive = 1..2\n"},
     1, "clip.prob: expected float, got 'half'"),
    (_SPEC, {"chain.spec": "[clip]\nprob = 1\ndrive = 1..z\n"},
     1, "clip.drive: expected float, got 'z'"),
    (_DEGRADE + ["--seed", "-1"], {}, 1, "seed must be >= 0, got -1"),
    (["degrade", "--in", "e.wav", "--out", "o.wav", "--seed", "2"], {},
     1, "cannot degrade an empty waveform (0 samples)"),
    (_BENCH + ["--runs", "0"], {}, 1, "runs must be >= 1, got 0"),
    (_BENCH + ["--runs", "1", "--warmup", "-1"], {}, 1, "warmup must be >= 0, got -1"),
    (["bench", *_MODEL, "--seconds", "0", "--runs", "1"], {}, 1, "seconds must be > 0, got 0.0"),
    (["bench", *_MODEL, "--seconds", "inf", "--runs", "1"], {}, 1, "seconds must be finite, got inf"),
    (["bench", *_MODEL, "--seconds", "1e-6", "--runs", "1"], {}, 1,
     "seconds must cover at least one sample at 16000 Hz, got 1e-06"),
    (["restore", "--in", "a16.wav", "--out", "nodir/o.wav", *_MODEL], {},
     1, "[Errno 2] No such file or directory: 'nodir/o.wav'"),
    (["rank", "--csv", "c.csv"], {"c.csv": "system_a,system_b,outcome\nx,y,a\nx,y,c\n"},
     1, "CSV line 3: outcome must be a|b|tie, got 'c'"),
    (["rank", "--csv", "c.csv", "--category", "singing"],
     {"c.csv": "system_a,system_b,outcome,category\nx,y,a,speech\nx,z,b,speech\n"},
     1, "no comparison has category 'singing'; categories present: 'speech'"),
    (_SPEC, {"chain.spec": "[reverb]\nprob = 0.2\nrt60 = 0.2..0.3\nrt60 = 0.5..0.6\n"
                           "wet = 0.1..0.2\n"},
     1, "reverb.rt60 is listed twice"),
], ids=["eval_rate_mismatch", "rank_short_row", "spec_seed_x", "spec_prob_half",
        "spec_range_z", "degrade_seed_negative", "degrade_empty",
        "bench_runs_0", "bench_warmup_negative", "bench_seconds_0", "bench_seconds_inf",
        "bench_seconds_under_one_sample", "restore_out_dir_missing",
        "rank_bad_outcome", "rank_category_absent", "spec_repeated_key"])
def test_bad_input_names_cause(model_files, tmp_path, monkeypatch, capsys, argv, files, code,
                               cause):
    """Each bad input exits with its documented code and one `error:` line
    that names the cause, not a traceback."""
    monkeypatch.chdir(tmp_path)
    _write_noise("a16.wav", sr=16000)
    _write_noise("a48.wav", sr=48000)
    _write_noise("e.wav", n=0, sr=48000)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {cause}"], err


SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_make_model_script_writes_a_restorable_model(tmp_path):
    """scripts/make_model.py writes a weights file and a .cfg that restore
    loads and runs."""
    done = _run_script("make_model.py", "--preset", "toy", "--seed", "0",
                       "--weights", "m.bin", "--config", "m.cfg", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert ModelConfig.from_text((tmp_path / "m.cfg").read_text()) == toy_config()
    inp = str(tmp_path / "in.wav")
    _write_noise(inp, sr=toy_config().sample_rate)
    assert main(["restore", "--in", inp, "--out", str(tmp_path / "o.wav"),
                 "--weights", str(tmp_path / "m.bin"),
                 "--config", str(tmp_path / "m.cfg")]) == EXIT_OK


def test_demo_pipeline_script_runs(tmp_path):
    done = _run_script("demo_pipeline.py", "--seconds", "0.5", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "restored" in done.stdout
