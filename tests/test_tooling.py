"""The benchmark's tracer (perfbench/tracing.py) binds module-level names of
the package; a refactor that renames one, or that calls a stage function
through a captured object, would silently break ``run.py --trace 1``."""

import dataclasses
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

import vocalrestore
# Every module tracing.LAYERS names must be an attribute of the package.
from vocalrestore import cli, degrade, discriminator, generator, losses, ranking  # noqa: F401
from vocalrestore import blas
from vocalrestore.audio_io import Waveform

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = pathlib.Path(vocalrestore.__file__).resolve().parent


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _halves() -> int:
    """Halves each block runs as: two where blas.halves() hands out its
    worker (see generator.band_sequence_block), else one."""
    with blas.halves() as worker:
        return 1 if worker is None else 2


def test_tracer_install_uninstall(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    bindings = [b for layer in tracing.LAYERS.values() for b in layer]

    def bound():
        return [vars(tracing._resolve(vocalrestore, path))[attr] for path, attr in bindings]

    before = bound()
    tracer = tracing.Tracer()
    tracer.install(vocalrestore)
    try:
        tracer.op = 0
        cfg = generator.toy_config()
        x = Waveform(0.1 * np.random.default_rng(0).standard_normal(4000), cfg.sample_rate)
        generator.restore(x, generator.init_weights(cfg, 0), cfg)
        _, trace = degrade.apply_chain(x, degrade.DegradationSpec.default(seed=0, prob=1.0))
        degrade.replay_trace(x, trace)
        dcfg = discriminator.DiscriminatorConfig()
        long = Waveform(np.resize(x.samples, discriminator.MIN_SAMPLES), x.sample_rate)
        discriminator.discriminator_forward(long, discriminator.init_discriminator_weights(dcfg, 0),
                                            dcfg)
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(bound(), before))

    calls = {name: agg["calls"] for name, agg in tracer.layer_totals()[0].items()}
    assert calls["generator.forward"] == 1
    assert calls["generator.block"] == cfg.L
    # one synthesis head per band, and one reassemble of their rows per forward
    assert calls["generator.head"] == cfg.n_band
    assert calls["bandsplit.reassemble"] == 1
    for kernel in ("attention_core", "depthwise_conv1d", "glu", "silu"):
        assert calls.get(f"nncore.{kernel}", 0) > 0, kernel
    # stem and heads per band; per half of each block the attention out
    # projection, 3 FFN projections and 2 per temporal ConvNeXt block, all
    # through the names tracing binds. The q/k/v projections are head-major
    # GEMMs in the block itself, not 1x1 convs.
    per_layer = generator.CONVNEXT_BLOCKS_PER_LAYER
    halves = _halves() * cfg.L
    assert calls["nncore.pointwise_conv"] == 3 * cfg.n_band + halves * (4 + 2 * per_layer)
    assert calls["nncore.rmsnorm"] == 2 * cfg.n_band + halves * (2 + per_layer)
    for stage in degrade.STAGE_ORDER:     # once in the chain, once in the replay
        assert calls.get(f"degrade.{stage}", 0) == 2, stage
    # one spectral norm per conv: every layer plus the final projection
    assert calls["discriminator.spectral_normalize"] == 8 * (len(dcfg.channels) + 1)


def test_tracer_sees_every_chunk(monkeypatch):
    """A chunked restore through the CLI's traced name runs one traced
    generator_forward per chunk, and the frame counter counts each input
    frame once: the carry recomputes none."""
    tracing = _load_tracing(monkeypatch)
    monkeypatch.setattr(generator, "CHUNK_FRAMES", 16)
    cfg = generator.toy_config()
    x = Waveform(0.1 * np.random.default_rng(1).standard_normal(59 * cfg.hop),
                 cfg.sample_rate)                      # 60 frames: chunks 16, 16, 16, 12
    tracer = tracing.Tracer()
    tracer.install(vocalrestore)
    try:
        tracer.op = 0
        cli.restore_chunked(x, generator.init_weights(cfg, 0), cfg)
    finally:
        tracer.uninstall()
    calls = {name: agg["calls"] for name, agg in tracer.layer_totals()[0].items()}
    chunks = 4
    assert calls["generator.restore_chunked"] == 1
    assert calls["generator.forward"] == chunks
    assert calls["generator.block"] == chunks * cfg.L
    assert calls["nncore.depthwise_conv1d"] == (chunks * cfg.L * _halves()
                                                * generator.CONVNEXT_BLOCKS_PER_LAYER)
    assert tracer.counts["generator.frames_computed"] == 60


def test_only_blas_makes_threads_and_fork_hooks():
    """blas owns the one worker thread beside the BLAS count it shares, and
    the one at-fork hook that resets both: an executor or a hook in another
    module would split that state again."""
    owners = {path.name for path in SRC.glob("*.py")
              if re.search(r"register_at_fork\(|ThreadPoolExecutor\(", path.read_text())}
    assert owners == {"blas.py"}


def test_one_place_writes_the_lag_rule():
    """ModelConfig.reaches is the one place a temporal conv's reach
    a = dilation * (k - 1) / 2 is worked out from the config: the block's
    frame count, the temporal path and receptive_field all read it.
    nncore.depthwise_conv1d works out its own from the kernel it is given,
    since it takes no config."""
    hits = {path.name: path.read_text().count("conv_kernel - 1") for path in SRC.rglob("*.py")}
    assert sum(hits.values()) == 1, hits
    assert "conv_kernel - 1" in inspect.getsource(generator.ModelConfig.reaches)


def test_every_model_config_field_is_an_int():
    """ModelConfig.from_text parses every value with int(): a field of any
    other type fails here until it gets a parse rule of its own."""
    types = {f.name: f.type for f in dataclasses.fields(generator.ModelConfig)}
    assert types and all(t in (int, "int") for t in types.values()), types


def test_cli_import_loads_no_scipy():
    """`import vocalrestore.cli` loads no scipy module: the stages that need
    scipy import it when they run, so the restore commands do not pay for it
    at start-up."""
    code = ("import sys, vocalrestore.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
