"""Command-line surface: restore, degrade, eval, rank, bench.

All commands write outputs atomically (temp file + rename) and exit nonzero
on error, with the code that EXIT_CODES gives for the exception.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import degrade as degrade_mod
from . import losses as losses_mod
from . import ranking as ranking_mod
from .audio_io import Waveform, read_wav, write_wav
from .errors import (
    ConfigError,
    ConnectivityError,
    LengthMismatchError,
    MissingInputError,
    SampleRateError,
    VocalRestoreError,
)
from . import generator as generator_mod
from .generator import ModelConfig, check_weights, load_weights, receptive_field, restore
from .spectral import StftParams, stft

restore_chunked = restore   # perfbench/tracing.py binds and times this name

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_SAMPLE_RATE = 3
EXIT_LENGTH = 4
EXIT_DISCONNECTED = 5

# Exception type -> exit code; main() uses the entry of the most specific
# type in the exception's MRO.
EXIT_CODES = {
    MissingInputError: EXIT_MISSING_FILE,
    SampleRateError: EXIT_SAMPLE_RATE,
    LengthMismatchError: EXIT_LENGTH,
    ConnectivityError: EXIT_DISCONNECTED,
    VocalRestoreError: EXIT_ERROR,
    OSError: EXIT_ERROR,
    ValueError: EXIT_ERROR,
}


def _atomic_write(path: str, write) -> None:
    """Call write(tmp) on a temp file beside path, then rename it onto path,
    so a failure never leaves a partial output behind."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    except OSError as exc:
        # Name the output the caller gave, not the temp file beside it.
        raise type(exc)(exc.errno, exc.strerror, path) from None
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    """Write text and a newline to the file out, or print it when out is unset."""
    if out:
        _atomic_write(out, lambda tmp: pathlib.Path(tmp).write_text(text + "\n"))
    else:
        print(text)


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise MissingInputError(f"no such file: {path}")
    return path


def _load_model(args):
    weights = load_weights(_require(args.weights))
    with open(_require(args.config)) as fh:
        config = ModelConfig.from_text(fh.read())
    check_weights(weights, config)
    return weights, config


@dataclass
class BenchReport:
    runs: int
    median_s: float
    p90_s: float
    mean_s: float
    audio_s: float
    rtf: float
    threads: int    # BLAS threads in effect, 0 where OpenBLAS cannot be asked

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def blas_threads_in_effect() -> int:
    """Threads the OpenBLAS bundled with NumPy runs (OPENBLAS_NUM_THREADS sets
    them at import), or 0 where it cannot be asked: NumPy on another BLAS."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def run_bench(
    weights, config: ModelConfig, seconds: float, runs: int, warmup: int, seed: int = 0,
) -> BenchReport:
    """Time repeated restore() calls on a seeded noise input."""
    if not seconds > 0:
        raise ConfigError(f"seconds must be > 0, got {seconds}")
    if not seconds * config.sample_rate < float("inf"):
        raise ConfigError(f"seconds must be finite, got {seconds}")
    n = int(seconds * config.sample_rate)
    if n < 1:
        raise ConfigError(f"seconds must cover at least one sample at "
                          f"{config.sample_rate} Hz, got {seconds}")
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    rng = np.random.Generator(np.random.Philox(seed))
    wave = Waveform(0.1 * rng.standard_normal(n), config.sample_rate)

    for _ in range(warmup):
        restore(wave, weights, config)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        restore(wave, weights, config)
        times.append(time.perf_counter() - t0)

    times = np.asarray(times)
    median = float(np.median(times))
    return BenchReport(
        runs=runs,
        median_s=median,
        p90_s=float(np.percentile(times, 90)),
        mean_s=float(np.mean(times)),
        audio_s=seconds,
        rtf=seconds / median,
        threads=blas_threads_in_effect(),
    )


def cmd_restore(args) -> int:
    weights, config = _load_model(args)
    wave = read_wav(_require(args.infile))
    t0 = time.perf_counter()
    out = restore_chunked(wave, weights, config)
    elapsed = time.perf_counter() - t0
    _atomic_write(args.outfile, lambda tmp: write_wav(out, tmp))
    rtf = wave.duration / elapsed if elapsed > 0 else float("inf")
    chunks = generator_mod.chunk_starts(config.stft_params.frames(len(wave)))
    print(f"restored {wave.duration:.2f}s in {elapsed:.3f}s (RTF {rtf:.2f}); "
          f"chunks={len(chunks)} latency_frames={receptive_field(config)}")
    return EXIT_OK


def cmd_degrade(args) -> int:
    wave = read_wav(_require(args.infile))
    if args.spec:
        with open(_require(args.spec)) as fh:
            spec = degrade_mod.DegradationSpec.from_text(fh.read())
    else:
        spec = degrade_mod.DegradationSpec.default()
    if args.seed is not None:
        spec = degrade_mod.DegradationSpec(spec.stages, args.seed)
    degraded, trace = degrade_mod.apply_chain(wave, spec)
    _atomic_write(args.outfile, lambda tmp: write_wav(degraded, tmp))
    _emit(trace.to_json_lines(), args.trace_out)
    return EXIT_OK


def cmd_eval(args) -> int:
    ref = read_wav(_require(args.ref))
    est = read_wav(_require(args.est))
    params = StftParams(n_fft=args.n_fft, hop=args.hop)
    ref_spec = stft(ref, params)
    est_spec = stft(est, params)
    report = losses_mod.reconstruction_loss(est, ref, est_spec, ref_spec)
    out = json.dumps(
        {
            "wav": report.wav,
            "spec": report.spec,
            "omni": report.omni,
            "recon": report.recon,
        },
        sort_keys=True,
    )
    _emit(out, args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    with open(_require(args.csv)) as fh:
        data = ranking_mod.ComparisonSet.from_csv(fh.read())
    if args.category:
        data = ranking_mod.category_split(data, args.category)
    report = ranking_mod.rank_report(data, categories=not args.category)
    _emit(ranking_mod.report_to_json(report), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    weights, config = _load_model(args)
    report = run_bench(
        weights, config, args.seconds, args.runs, args.warmup, seed=args.seed
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocalrestore",
        description="Single-stage complex-STFT vocal restoration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restore", help="restore a degraded WAV file")
    p.add_argument("--in", dest="infile", required=True, help="input WAV path")
    p.add_argument("--out", dest="outfile", required=True, help="output WAV path")
    p.add_argument("--weights", required=True, help="model weight file")
    p.add_argument("--config", required=True, help="model config text file")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("degrade", help="apply the stochastic corruption chain")
    p.add_argument("--in", dest="infile", required=True, help="input WAV path")
    p.add_argument("--out", dest="outfile", required=True, help="output WAV path")
    p.add_argument("--spec", default=None, help="degradation spec file (default: built-in)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--trace-out", default=None,
                   help="write the stage trace here (default: stdout)")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("eval", help="reconstruction losses between two WAVs")
    p.add_argument("--ref", required=True, help="reference (clean) WAV")
    p.add_argument("--est", required=True, help="estimate (restored) WAV")
    grid = ModelConfig().stft_params
    p.add_argument("--n-fft", type=int, default=grid.n_fft,
                   help=f"omni-term STFT window (default {grid.n_fft}, the model's)")
    p.add_argument("--hop", type=int, default=grid.hop,
                   help=f"omni-term STFT hop (default {grid.hop}, the model's)")
    p.add_argument("--out", default=None, help="write JSON report here (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="fit Bradley-Terry strengths from a comparison CSV")
    p.add_argument("--csv", required=True, help="comparisons: system_a,system_b,outcome[,category]")
    p.add_argument("--category", default=None, help="fit only this category")
    p.add_argument("--out", default=None, help="write JSON report here (default: stdout)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", help="real-time-factor benchmark on seeded noise")
    p.add_argument("--weights", required=True, help="model weight file")
    p.add_argument("--config", required=True, help="model config text file")
    p.add_argument("--seconds", type=float, default=10.0, help="input duration (default 10)")
    p.add_argument("--runs", type=int, default=30, help="timed runs (default 30)")
    p.add_argument("--warmup", type=int, default=3, help="warmup runs (default 3)")
    p.add_argument("--seed", type=int, default=0, help="input noise seed (default 0)")
    p.add_argument("--out", default=None, help="write JSON report here (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
