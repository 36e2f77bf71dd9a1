"""Re-record ``reference.json``: the modelled-results fingerprint and the
exact per-layer counts of every workload at the default and held-out
seeds.

Run from the root of a checkout, only when a change is meant to alter
the model (and says so)::

    python3 perfbench/record_reference.py

Each (workload, seed) is run untraced and traced in fresh processes;
the two fingerprints must agree, or nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, PER_LAYER, run_point
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS


def record(root: str) -> dict:
    reference = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    count_names = [n for n, unit, _ in PER_LAYER if unit == "count"]
    for name in WORKLOADS:
        reference[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            plain = run_point(root, name, seed, trace=False)
            traced = run_point(root, name, seed, trace=True)
            for p in (plain, traced):
                if p["errors"]:
                    raise SystemExit(f"{name} seed {seed}: {p['errors']}")
            if plain["fingerprint"] != traced["fingerprint"]:
                raise SystemExit(f"{name} seed {seed}: tracing changed the "
                                 "modelled results")
            found = dict(traced["layers"], **plain["counts"])
            reference[name][str(seed)] = {
                "fingerprint": plain["fingerprint"],
                "now_ns": plain["now_ns"],
                "counts": {k: found[k] for k in count_names},
            }
            print(f"{name} seed {seed}: {plain['fingerprint'][:16]}",
                  file=sys.stderr)
    return reference


if __name__ == "__main__":
    ref = record(os.getcwd())
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
