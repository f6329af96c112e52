#!/usr/bin/env python3
"""Record every library item's reference outputs into reference.json.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good; every workload
is recorded and reference.json is rewritten.
"""

import json
import os
import shutil
import sys

import run


def main() -> None:
    run.pin_threads()
    sys.path.insert(0, run.SRC)
    import workloads

    reference = {}
    for name in run.NAMES:
        workdir = os.path.join(run.WORK, f"record-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            wl = workloads.WORKLOADS[name](0, workdir)
            wl.setup()
            ops = [wl.item_op(item) for item in wl.library()]
            if name == "synth_score":
                ops += [wl.csv_op(v, workloads.listening_csv(v))
                        for v in range(workloads.CSV_VARIANTS)]
            entries = {}
            for op in ops:
                entries[op.key] = op.record()
                print(name, op.key, flush=True)
            reference[name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
