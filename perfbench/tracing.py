"""Span tracing around the public functions of each vocalrestore layer.

Wrappers are installed on the module attributes that callers look up at call
time (for example the nncore kernels as bound in ``vocalrestore.generator``),
so nothing inside ``src/`` changes. Spans live in memory as
``[name, start, end, parent, op, failed]`` and are written out at the end.
The benchmark's timed runs install no wrappers.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# Spans whose ``_s`` metric is inclusive time; each also gets ``_self_s``.
# Every other ``_s`` metric is self time.
INCLUSIVE = ("generator.block", "degrade.replay", "cli.restore")

# Metric prefix -> (module, attribute) bindings that callers look up.
LAYERS = {
    "nncore.attention_core": [("generator", "attention_core")],
    "nncore.depthwise_conv1d": [("generator", "depthwise_conv1d")],
    "nncore.rmsnorm": [("generator", "rmsnorm")],
    "nncore.pointwise_conv": [("generator", "pointwise_conv")],
    "nncore.glu": [("generator", "glu")],
    "nncore.silu": [("generator", "silu")],
    "generator.stem": [("generator", "stem")],
    "generator.head": [("generator", "synthesis_head")],
    "generator.block": [("generator", "band_sequence_block")],
    "generator.forward": [("generator", "generator_forward")],
    "generator.load_weights": [("generator", "load_weights"), ("cli", "load_weights")],
    "generator.restore_chunked": [("cli", "restore_chunked")],
    "spectral.stft": [("spectral", "stft"), ("generator", "stft"), ("degrade", "stft"),
                      ("losses", "stft"), ("discriminator", "stft")],
    "spectral.istft": [("generator", "istft"), ("degrade", "istft")],
    "bandsplit.pack": [("generator", "pack_band_features")],
    "bandsplit.reassemble": [("generator", "reassemble")],
    "degrade.chain": [("degrade", "apply_chain")],
    "degrade.freq_shape": [("degrade", "freq_shape")],
    "degrade.reverb": [("degrade", "reverb")],
    "degrade.clip": [("degrade", "clip")],
    "degrade.add_noise": [("degrade", "add_noise")],
    "degrade.spectral_corrupt": [("degrade", "spectral_corrupt")],
    "degrade.time_varying_gain": [("degrade", "time_varying_gain")],
    "degrade.replay": [("degrade", "replay_trace")],
    "losses.recon": [("losses", "reconstruction_loss")],
    "losses.spec_l1": [("losses", "multi_res_spec_l1")],
    "losses.omni": [("losses", "omni_phase_loss")],
    "losses.gan": [("losses", "hinge_d_loss"), ("losses", "adv_loss"),
                   ("losses", "feature_matching")],
    "discriminator.forward": [("discriminator", "discriminator_forward")],
    "discriminator.spectral_normalize": [("discriminator", "spectral_normalize")],
    "ranking.parse": [("ranking.ComparisonSet", "from_csv")],
    "ranking.fit": [("ranking", "fit_bradley_terry")],
    "ranking.report": [("ranking", "rank_report")],
    "audio_io.read": [("cli", "read_wav")],
    "audio_io.write": [("cli", "write_wav")],
    "cli.restore": [("cli", "cmd_restore")],
}

# Metrics that are per call rather than per op: on restore_clips the weights
# are loaded once, in set-up, outside every op.
PER_CALL = ("generator.load_weights",)

OP = "bench.op"


def _frames_in(args, kwargs, result):
    return args[0].n_frames


def _frames_out(args, kwargs, result):
    return result.n_frames


# Work counters recorded at the same boundaries as the spans.
COUNTERS = {
    ("generator", "generator_forward"): ("generator.frames_computed", _frames_in),
    ("generator", "istft"): ("spectral.frames", _frames_in),
    ("degrade", "istft"): ("spectral.frames", _frames_in),
}
for _mod, _attr in LAYERS["spectral.stft"]:
    COUNTERS[(_mod, _attr)] = ("spectral.frames", _frames_out)


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records nested spans; ``op`` tags each span with the op that caused it
    (None during set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.op, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None and self.op is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        for name, bindings in LAYERS.items():
            for path, attr in bindings:
                owner = _resolve(package, path)
                raw = vars(owner)[attr]
                wrapped = self._wrap(name, getattr(owner, attr),
                                     COUNTERS.get((path, attr)))
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def layer_totals(self):
        """name -> {"incl", "self", "calls", "failed"} over spans inside ops,
        plus per-call totals for PER_CALL layers over every span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, failed in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        in_ops = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "failed": 0})
        every = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "failed": 0})
        for i, (name, t0, t1, parent, op, failed) in enumerate(self.spans):
            targets = (in_ops[name], every[name]) if op is not None else (every[name],)
            for agg in targets:
                agg["incl"] += t1 - t0
                agg["self"] += t1 - t0 - child[i]
                agg["calls"] += 1
                agg["failed"] += int(failed)
        return in_ops, every

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "failed": failed}) + "\n")


def per_layer_values(tracer: Tracer, n_ops: int) -> dict:
    """Per-op self (or inclusive) seconds, calls and failures for every layer;
    PER_CALL layers report seconds per call and total calls instead."""
    in_ops, every = tracer.layer_totals()
    out = {}
    for name in LAYERS:
        if name in PER_CALL:
            agg = every[name]
            out[f"{name}_s"] = agg["self"] / max(agg["calls"], 1)
            out[f"{name}_calls"] = agg["calls"]
            out[f"{name}_failed"] = agg["failed"]
            continue
        agg = in_ops[name]
        if name in INCLUSIVE:
            out[f"{name}_self_s"] = agg["self"] / n_ops
        out[f"{name}_s"] = (agg["incl"] if name in INCLUSIVE else agg["self"]) / n_ops
        out[f"{name}_calls"] = agg["calls"] / n_ops
        out[f"{name}_failed"] = agg["failed"]
    out["trace.unattributed_s"] = in_ops[OP]["self"] / n_ops
    return out


# Work counters and probes that run.py adds to the per-layer values.
EXTRA_METRICS = [
    ("generator.frames_computed", "frames/op", "lower"),
    ("generator.useful_frame_ratio", "ratio", "higher"),
    ("generator.gflop", "GFLOP/op", "lower"),
    ("generator.gflop_per_s", "GFLOP/s", "higher"),
    ("spectral.frames", "frames/op", "lower"),
    ("host.gemm_gflop_per_s", "GFLOP/s", "higher"),
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.span_cost_s", "s/op", "lower"),
]


def span_cost_s(n: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus the bare no-op,
    median of 5 batches of n calls."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("probe", noop, None)

    def batch(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    return statistics.median(batch(wrapped) - batch(noop) for _ in range(5)) / n


def metric_names():
    """(name, unit, better) for every per-layer metric a traced run reports."""
    rows = []
    for name in LAYERS:
        per = "call" if name in PER_CALL else "op"
        if name in INCLUSIVE:
            rows.append((f"{name}_self_s", "s/op", "lower"))
        rows += [(f"{name}_s", f"s/{per}", "lower"),
                 (f"{name}_calls", "count" if per == "call" else "calls/op", "lower"),
                 (f"{name}_failed", "count", "lower")]
    rows.append(("trace.unattributed_s", "s/op", "lower"))
    return rows + EXTRA_METRICS
