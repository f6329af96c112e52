#!/usr/bin/env python3
"""vocalrestore benchmark: three closed-loop workloads with one client.

    python3 perfbench/run.py --workload restore_long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout; the package is imported from its
``src/``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
ops untraced and traced in pairs and reports per-layer metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics. The line
before it holds the run's provenance. ``--workload all`` runs every workload
in its own process and prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("restore_long", "restore_clips", "synth_score")
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "rtf": "audio-s/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure; whole rounds run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads() -> int:
    """Fix BLAS/OpenMP threads at nproc, the CPUs this process may use,
    through the environment; must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def blas_threads_in_effect():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "vocalrestore")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def gemm_probe() -> float:
    """This host's float32 GEMM rate in GFLOP/s (median of 15 products)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512), dtype=np.float32)
    b = rng.standard_normal((512, 4096), dtype=np.float32)
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * 512 * 512 * 4096 / 1e9 / statistics.median(times)


class Measurement:
    def __init__(self):
        self.times, self.keys, self.audio, self.failed, self.rounds = [], [], [], 0, 0

    def run_op(self, op, reference, tracer=None):
        from tracing import OP
        from workloads import CheckError

        if tracer is not None:
            tracer.op = len(self.times)
        t0 = time.perf_counter()
        try:
            out = tracer.span(OP, op.run) if tracer is not None else op.run()
        except Exception:
            out = None
            traceback.print_exc()
        self.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        self.keys.append(op.key)
        self.audio.append(op.audio_s)
        try:
            if out is None:
                raise CheckError("op raised")
            op.check(out, reference)
        except Exception as exc:
            self.failed += 1
            print(f"op {op.key} failed: {exc!r}", file=sys.stderr)


def measure(wl, reference, seconds, min_rounds) -> Measurement:
    """Whole rounds until `seconds` of op time and `min_rounds` rounds, then
    the workload's closing ops. Inputs of a round are built before its ops and
    checks run after each op, both outside the timed region."""
    m = Measurement()
    while sum(m.times) < seconds or m.rounds < min_rounds:
        for op in wl.ops(m.rounds):
            m.run_op(op, reference)
        m.rounds += 1
    for op in wl.closing_ops():
        m.run_op(op, reference)
    return m


def measure_paired(wl, reference, seconds, tracer, package):
    """Every op twice, untraced and traced, which one first alternating from
    op to op; whole rounds until `seconds` of untraced op time, then the
    closing ops. The wrappers are installed only around the traced ops, and
    around the set-up work the traced run repeats (`wl.prepare`)."""
    base, traced = Measurement(), Measurement()

    def run_traced(fn, *args):
        tracer.install(package)
        try:
            fn(*args)
        finally:
            tracer.uninstall()

    def run_pair(op):
        first_traced = len(base.times) % 2 == 1
        for turn in (first_traced, not first_traced):
            if turn:
                run_traced(traced.run_op, op, reference, tracer)
            else:
                base.run_op(op, reference)

    run_traced(wl.prepare)
    while base.rounds < 1 or sum(base.times) < seconds:
        for op in wl.ops(base.rounds):
            run_pair(op)
        base.rounds += 1
    for op in wl.closing_ops():
        run_pair(op)
    traced.rounds = base.rounds
    return base, traced


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "vocalrestore", "__init__.py")):
        print(f"error: no vocalrestore package under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import numpy as np
    import scipy

    import vocalrestore
    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - t0
    if not os.path.abspath(vocalrestore.__file__).startswith(SRC + os.sep):
        print(f"error: imported vocalrestore from {vocalrestore.__file__}", file=sys.stderr)
        return 2

    reference = workloads.load_reference()[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            reps.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warmup()
        warmup_s = time.perf_counter() - t0
        setup_s = import_s + statistics.median(reps) + warmup_s

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        if args.trace:
            tracer = Tracer()
            base, m = measure_paired(wl, reference, args.seconds / 2, tracer, vocalrestore)
            tracer.write_spans(os.path.join(results, tag + ".spans.jsonl"))
            metrics = trace_metrics(wl, m, base, tracer)
            op_times = {"untraced_op_s": sum(base.times) / len(base.times),
                        "traced_op_s": sum(m.times) / len(m.times)}
            attempted = len(base.times) + len(m.times)
            failed = base.failed + m.failed
        else:
            m = measure(wl, reference, seconds=args.seconds, min_rounds=wl.min_rounds)
            metrics = {
                "setup_s": setup_s,
                "rtf": sum(m.audio) / sum(m.times),
                "op_p50_s": float(np.percentile(m.times, 50)),
                "op_tail_s": float(np.percentile(m.times, wl.tail_pct)),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
            op_times = {}
            attempted, failed = len(m.times), m.failed

        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(), "src_sha256": src_sha256(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "nproc": nproc, "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads": blas_threads_in_effect(),
            **wl.model_files(),
            "attempted": attempted, "succeeded": attempted - failed, "failed": failed,
            "fail_ratio": failed / attempted, "rounds": m.rounds,
            "tail_percentile": wl.tail_pct, "tail_samples": len(m.times),
            "setup_parts_s": {"import": import_s, "repeats": reps, "warmup": warmup_s},
            **op_times, "ops": list(zip(m.keys, m.times)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump({"provenance": provenance, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_metrics(wl, m, base, tracer) -> dict:
    """Per-layer metrics per traced op, plus computed work counters."""
    import workloads
    from tracing import metric_names, per_layer_values, span_cost_s

    n = len(m.times)
    values = per_layer_values(tracer, n)
    frames = tracer.counts["generator.frames_computed"]
    config = getattr(wl, "config", None)
    useful, gflop = 0, 0.0
    if config is not None:
        # Frames one pass over each whole input computes: the useful work.
        useful = sum(1 + int(round(a * config.sample_rate)) // config.hop for a in m.audio)
        gflop = workloads.gflop_per_frame(config) * frames
    forward_s = sum(t1 - t0 for name, t0, t1, _, op, _ in tracer.spans
                    if name == "generator.forward" and op is not None)
    values.update({
        "generator.frames_computed": frames / n,
        "generator.useful_frame_ratio": useful / frames if frames else 0.0,
        "generator.gflop": gflop / n,
        "generator.gflop_per_s": gflop / forward_s if forward_s else 0.0,
        "spectral.frames": tracer.counts["spectral.frames"] / n,
        "host.gemm_gflop_per_s": gemm_probe(),
        "trace.overhead_s": statistics.median(t - b for t, b in zip(m.times, base.times)),
        "trace.span_cost_s": sum(op is not None for *_, op, _ in tracer.spans) / n * span_cost_s(),
    })
    return {name: (values[name], unit) for name, unit, _ in metric_names()}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"fail_ratio={result['failed'] / result['attempted']:.3f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
