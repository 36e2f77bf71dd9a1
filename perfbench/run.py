"""Host-time benchmark of the simulator: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv_open --seed 1 --seconds 35 --trace 0

For ``--seconds`` it runs simulation points of the workload one after
another, each in a fresh process (``point.py``) built from the
checkout's ``src/``, and prints one value per metric.  The last line
of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, all host time or memory:
``wall_s`` (process start to exit), ``setup_s`` (start until the sharded
machine is built), ``run_s`` (``ShardedMachine.run()``), ``sim_ns_per_s``
(simulated ns per host second of ``run_s``) and ``peak_rss_mb``.

Every host time is scaled to a reference host speed: this process times
a fixed loop (``calibrate.py``) just before and just after each point
and multiplies the point's times by ``REFERENCE_S`` over the mean of the
two, which takes out the shared host's minute-to-minute drift.  A run's
time is its points' total host time over their total loop time (see
``combine``).  The unscaled medians are printed beside the scaled values
and kept, per point, in the output file.

``--trace 1`` alternates untraced and traced points and reports the
per-layer metrics: self times from the traced points (``layers.py``),
exact counts from the untraced ones, and the tracing overhead.  The
whole per-entry-point span table goes to ``.perfbench_out/``.

A point fails when its process fails, its scenario check fails, or its
modelled-results fingerprint differs from the recorded one (at a seed in
``reference.json``) or from the run's other points.  Failed points count
in ``failed`` and never in a timing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, reference_loop  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: fewest untraced points a run reports on, even past ``--seconds``; a
#: ``--trace 1`` run needs ``MIN_PAIRS`` untraced/traced pairs.  Past
#: these, a point is started only if it is due to end less than half a
#: point after ``--seconds``.
MIN_POINTS = 3
MIN_PAIRS = 2
#: no point is started after this many seconds, and a point still
#: running at ``DEADLINE_S`` is killed and counted as failed: a run must
#: end within 180 s.
LAST_START_S = 120.0
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"),
              ("sim_ns_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: the ``--trace 1`` metrics: (name, unit, better).  ``*.build_s`` and
#: ``*.self_s`` are self times of the traced points; counts are exact.
PER_LAYER = (
    ("core.build_s", "s", "lower"),
    ("mem.build_s", "s", "lower"),
    ("mem.cache_lines_built", "count", "lower"),
    ("firmware.build_s", "s", "lower"),
    ("node.build_s", "s", "lower"),
    ("niu.build_s", "s", "lower"),
    ("net.build_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("shard.windows", "count", "lower"),
    ("shard.events_per_window", "count/window", "higher"),
    ("shard.barrier_s", "s", "lower"),
    ("shard.boundary_msgs", "count", "lower"),
    ("obs.merge_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("node.self_s", "s", "lower"),
    ("node.ap_ops", "count", "lower"),
    ("bus.self_s", "s", "lower"),
    ("bus.txns", "count", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mp.self_s", "s", "lower"),
    ("mp.recv_polls", "count", "lower"),
    ("mp.poll_yield", "msg/poll", "higher"),
    ("niu.self_s", "s", "lower"),
    ("niu.ctrl_msgs", "count", "lower"),
    ("firmware.self_s", "s", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.packets", "count", "lower"),
    ("net.combine_hits", "count", "higher"),
    ("coherence.self_s", "s", "lower"),
    ("coherence.requests", "count", "lower"),
    ("sync.self_s", "s", "lower"),
    ("collectives.self_s", "s", "lower"),
    ("lib.self_s", "s", "lower"),
    ("traffic.self_s", "s", "lower"),
    ("shm.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)
COUNT_NAMES = frozenset(n for n, unit, _ in PER_LAYER
                        if not unit.startswith("1/") and unit != "s")
#: unit of every metric a point reports, end-to-end or per-layer.
UNITS = {**dict(END_TO_END), **{n: unit for n, unit, _ in PER_LAYER}}


def load_reference() -> Dict[str, Any]:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def run_point(root: str, workload: str, seed: int, trace: bool,
              timeout: float = DEADLINE_S) -> Dict[str, Any]:
    """One point in a fresh process; the parent times it end to end."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "point.py"), workload,
           str(seed), "1" if trace else "0", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"timed out after {timeout:.0f} s"]}
    wall = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"exit {proc.returncode}"] + tail}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["sim_ns_per_s"] = result["now_ns"] / result["run_s"]
    return result


def scale_to_reference(point: Dict[str, Any], before: float,
                       after: float) -> None:
    """Scale a point's host times to the reference host speed, keeping
    the measured values under ``raw``: times by ``REFERENCE_S`` over the
    mean loop time ``before`` and ``after`` the point, rates by its
    inverse."""
    factor = REFERENCE_S / ((before + after) / 2)
    point["calibration_s"] = [before, after]
    if point["errors"]:
        return
    point["raw"] = {name: point[name] for name, _ in END_TO_END}
    for section in (point, point["counts"], point.get("layers", {})):
        for name in list(section):
            unit = UNITS.get(name)
            if unit == "s":
                section[name] *= factor
            elif unit == "1/s":
                section[name] /= factor


def judge(points: List[Dict[str, Any]], expected: Optional[str]) -> None:
    """Fail points whose fingerprint is not the reference (when one is
    recorded for this seed) or not the run's first fingerprint."""
    for p in points:
        if p["errors"]:
            continue
        if expected is None:
            expected = p["fingerprint"]
        if p["fingerprint"] != expected:
            p["errors"].append(f"fingerprint {p['fingerprint'][:12]} != "
                               f"{expected[:12]}")


def combine(points: List[Dict[str, Any]], name: str,
            section: Optional[str] = None) -> float:
    """One value of a metric over a run's points.

    A time is the points' total host time over their total reference-loop
    time, times ``REFERENCE_S``: the mean of the scaled values weighted by
    each point's loop time.  A rate is combined the same way, from its
    reciprocal.  Any other metric (memory, counts) is the median."""
    values = [(p[section] if section else p)[name] for p in points]
    unit = UNITS[name]
    weights = [sum(p["calibration_s"]) for p in points]
    if unit == "s":
        return sum(w * v for w, v in zip(weights, values)) / sum(weights)
    if unit == "1/s" and all(values):
        return sum(weights) / sum(w / v for w, v in zip(weights, values))
    return statistics.median(values)


def layer_metrics(plain: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self times from the traced points; counts from the untraced ones."""
    out: Dict[str, float] = {}
    for key in traced[0]["layers"]:
        out[key] = combine(traced, key, "layers")
    for key in plain[0]["counts"]:
        out[key] = combine(plain, key, "counts")
    out["trace.overhead_s"] = (combine(traced, "wall_s")
                               - combine(plain, "wall_s"))
    return out


def counts_repeat(points: List[Dict[str, Any]]) -> bool:
    """Counts must repeat exactly across a run's points, traced or not:
    tracing must not perturb the experiment, not even its event count."""
    def exact(p, section):
        return {k: v for k, v in p.get(section, {}).items()
                if k in COUNT_NAMES}

    traced = [p for p in points if p["trace"]]
    return (all(exact(p, "counts") == exact(points[0], "counts")
                for p in points)
            and all(exact(p, "layers") == exact(traced[0], "layers")
                    for p in traced))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: {root} holds no src/repro to measure; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    reference = load_reference()
    expected = (reference.get(args.workload, {}).get(str(args.seed))
                or {}).get("fingerprint")

    start = time.monotonic()
    points: List[Dict[str, Any]] = []
    while True:
        elapsed = time.monotonic() - start
        ok = [p for p in points if not p["errors"]]
        enough = 2 * MIN_PAIRS if args.trace else MIN_POINTS
        trace = bool(args.trace) and len(points) % 2 == 1
        cost = [p["cost_s"] for p in points if p["trace"] == trace]
        due = elapsed + (statistics.median(cost) / 2 if cost else 0.0)
        if due >= args.seconds and len(ok) >= enough:
            break
        if elapsed >= LAST_START_S or (len(points) >= enough and not ok):
            break
        before = reference_loop()
        point = run_point(root, args.workload, args.seed, trace,
                          timeout=DEADLINE_S - elapsed)
        scale_to_reference(point, before, reference_loop())
        point["trace"] = trace
        point["cost_s"] = time.monotonic() - start - elapsed
        points.append(point)
        for err in point["errors"]:
            print(f"perfbench: {args.workload} seed {args.seed}: {err}",
                  file=sys.stderr)

    judge(points, expected)
    plain = [p for p in points if not p["errors"] and not p["trace"]]
    traced = [p for p in points if not p["errors"] and p["trace"]]
    failed = sum(1 for p in points if p["errors"])
    if not plain or (args.trace and not traced):
        print("perfbench: no point succeeded", file=sys.stderr)
        return 1
    correct = failed == 0 and counts_repeat(plain + traced)

    if args.trace:
        values = layer_metrics(plain, traced)
        units = {name: unit for name, unit, _better in PER_LAYER}
        raw = {}
    else:
        values = {name: combine(plain, name) for name, _ in END_TO_END}
        units = dict(END_TO_END)
        raw = {name: statistics.median(p["raw"][name] for p in plain)
               for name in units}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"metrics": metrics, "points": points}, f, indent=1)
    for name, m in metrics.items():
        line = f"{args.workload:10s} {name:26s} {m['value']:.6g} {m['unit']}"
        if name in raw and raw[name] != m["value"]:
            line += f"  (unscaled {raw[name]:.6g})"
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(points),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
