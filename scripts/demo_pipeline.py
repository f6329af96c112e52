#!/usr/bin/env python3
"""End-to-end smoke demo: synthesize a clip, degrade it with a seeded chain,
run it through a freshly initialized toy model, and print the losses.

The restored output of an untrained model is of course noise-like; the point
is exercising the whole degrade -> restore -> eval path in one command.
"""

import argparse

import numpy as np

from vocalrestore.audio_io import Waveform
from vocalrestore.degrade import DegradationSpec, apply_chain
from vocalrestore.generator import init_weights, restore, toy_config
from vocalrestore.losses import reconstruction_loss
from vocalrestore.spectral import stft


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    config = toy_config()
    sr = config.sample_rate
    t = np.arange(int(args.seconds * sr)) / sr
    clean = Waveform(
        0.2 * np.sin(2 * np.pi * 220.0 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 3.0 * t)),
        sr,
    )

    spec = DegradationSpec.default(seed=args.seed, prob=0.8)
    degraded, trace = apply_chain(clean, spec)
    print(f"applied stages: {[e['stage'] for e in trace.entries]}")

    weights = init_weights(config, seed=args.seed)
    restored = restore(degraded, weights, config)

    params = config.stft_params
    for name, wave in (("degraded", degraded), ("restored", restored)):
        report = reconstruction_loss(
            wave, clean, stft(wave, params), stft(clean, params)
        )
        print(
            f"{name:9s} wav={report.wav:.4f} spec={report.spec:.4f} "
            f"omni={report.omni:.4f} recon={report.recon:.4f}"
        )


if __name__ == "__main__":
    main()
