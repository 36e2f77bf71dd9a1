"""One simulation point: build, run, check and report, in this process.

``run.py`` starts this script once per point, so every point pays
import, build and simulation in a fresh interpreter, like a user's
experiment does.  The program is the checkout's own ``src/``; importing
any other copy of ``repro`` is an error.

Usage (one JSON object on the last line of stdout)::

    python3 perfbench/point.py <workload> <seed> <trace 0|1> <t_spawn>

``t_spawn`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` counts the
interpreter start-up too.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Workload, check  # noqa: E402

#: layers whose self time the traced run reports as ``<layer>.self_s``;
#: run-phase time outside them is ``trace.unattributed_s``.
RUN_LAYERS = ("sim", "shard", "obs", "core", "node", "bus", "mem", "mp",
              "niu", "firmware", "net", "coherence", "sync", "collectives",
              "lib", "traffic", "shm")
#: layers whose construction time is reported as ``<layer>.build_s``.
BUILD_LAYERS = ("core", "mem", "firmware", "node", "niu", "net")


def load_program(root: str = ROOT):
    """Import ``repro`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    return repro


def fingerprint(snapshot: Dict[str, Any]) -> str:
    """Hash of the modelled results: the snapshot without the ``sim``
    engine bookkeeping and without the shard count."""
    from repro.bench.harness import comparable

    doc = comparable(copy.deepcopy(snapshot))
    doc.pop("sim", None)
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _sum_counters(counters: Dict[str, Any], prefix: str,
                  suffix: str) -> int:
    return int(sum(v for k, v in counters.items()
                   if k.startswith(prefix) and k.endswith(suffix)))


def model_counts(run, machines) -> Dict[str, float]:
    """Exact per-layer counts from the run's own snapshot and objects."""
    snap = run.snapshot
    counters = snap.get("counters", {})
    events = int(snap["sim"]["events_executed"])
    engine_s = sum(run.shard_wall)
    packets = (snap.get("accumulators", {}).get("net.latency_ns") or {})
    return {
        "sim.events": events,
        "sim.events_per_s": events / engine_s if engine_s else 0.0,
        "shard.windows": run.windows,
        "shard.events_per_window": events / max(run.windows, 1),
        "node.ap_ops": sum(n.ap.loads + n.ap.stores for m in machines
                           for n in m.nodes if n is not None),
        "bus.txns": _sum_counters(counters, "bus", ".txns"),
        "niu.ctrl_msgs": (_sum_counters(counters, "ctrl", ".msgs_sent")
                          + _sum_counters(counters, "ctrl",
                                          ".msgs_delivered")),
        "net.packets": int(packets.get("n", 0)),
        "net.combine_hits": _sum_counters(counters, "sw", ".combine_hits"),
    }


def trace_metrics(tracer: LayerTracer, run_s: float) -> Dict[str, float]:
    """Per-layer self times and the counts only the trace can see."""
    out: Dict[str, float] = {}
    built = tracer.self_by_layer("build")
    for layer in BUILD_LAYERS:
        out[f"{layer}.build_s"] = built.get(layer, 0.0)
    ran = tracer.self_by_layer("run")
    for layer in RUN_LAYERS:
        out[f"{layer}.self_s"] = ran.get(layer, 0.0)
    out["shard.barrier_s"] = out.pop("shard.self_s")
    out["obs.merge_s"] = out.pop("obs.self_s")
    out["trace.unattributed_s"] = run_s - sum(
        ran.get(layer, 0.0) for layer in RUN_LAYERS)
    polls = sum(tracer.edge(f"mp.BasicPort.{fn}", "node.ApApi.load_u32")
                for fn in ("recv", "poll"))
    taken = tracer.calls("mp.BasicPort._take")
    out["mp.recv_polls"] = polls
    out["mp.poll_yield"] = taken / polls if polls else 0.0
    out["mem.cache_lines_built"] = tracer.counts.get(
        "mem.cache_lines_built", 0)
    out["coherence.requests"] = tracer.calls(
        "coherence.DirectoryController.request")
    out["shard.boundary_msgs"] = tracer.calls("shard.ShardView.deliver")
    return out


def measure(workload: Workload, seed: int, trace: bool,
            t_start: Optional[float] = None) -> Dict[str, Any]:
    """Build and run one point; return its timings, checks and counts."""
    if t_start is None:
        t_start = time.monotonic()
    tracer = LayerTracer().install() if trace else None
    try:
        from repro.common.config import default_config
        from repro.shard import ShardedMachine, scenario

        config = default_config(n_nodes=workload.n_nodes)
        config.seed = seed
        config.shards = workload.shards
        scen = scenario(workload.scenario, **workload.kwargs)
        scen.prepare(config)
        machine = ShardedMachine(config, scen)
        t_built = time.monotonic()
        if tracer is not None:
            tracer.phase = "run"
        run = machine.run()
        t_ran = time.monotonic()
        errors = check(workload, run)
        result = {
            "workload": workload.name,
            "seed": seed,
            "trace": bool(trace),
            "errors": errors,
            "fingerprint": fingerprint(run.snapshot),
            "setup_s": t_built - t_start,
            "run_s": t_ran - t_built,
            "now_ns": float(run.snapshot["now_ns"]),
            "counts": model_counts(run, machine.machines),
        }
        if tracer is not None:
            tracer.count_live()
            result["layers"] = trace_metrics(tracer, result["run_s"])
            result["spans"] = tracer.table()
    finally:
        if tracer is not None:
            tracer.uninstall()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv) -> int:
    name, seed, trace, t_spawn = argv[1:5]
    load_program()
    result = measure(WORKLOADS[name], int(seed), trace == "1",
                     float(t_spawn))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
