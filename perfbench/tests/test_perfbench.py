"""The benchmark's own tests.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The sensitivity test injects a fixed busy-wait into one entry point of
the checkout's program and checks that both the untraced ``run_s`` and
the traced per-layer table see it where it was put.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import point  # noqa: E402
import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload  # noqa: E402

repro = point.load_program(ROOT)

#: a small point of the shm_hash workload: under a second in either mode.
SMALL = Workload("small", "shm_hash",
                 {"lock_mode": "switch", "keys_per_rank": 2},
                 n_nodes=4, shards=1, why="sensitivity self-test")
#: busy-wait added to every MemoryBus.transact call.
DELAY_S = 0.0005


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_program_is_the_checkouts_src():
    assert os.path.abspath(repro.__file__) == os.path.join(
        ROOT, "src", "repro", "__init__.py")


def test_injected_delay_shows_in_run_s_and_in_bus_self_time():
    from repro.bus.bus import MemoryBus

    base = point.measure(SMALL, DEFAULT_SEED, trace=False)
    base_traced = point.measure(SMALL, DEFAULT_SEED, trace=True)
    calls = base_traced["spans"]["spans"]["run"][
        "bus.MemoryBus.transact"]["calls"]
    expected = calls * DELAY_S

    orig = MemoryBus.transact

    def slow_transact(self, txn, priority=0):
        spin(DELAY_S)
        return (yield from orig(self, txn, priority))

    MemoryBus.transact = slow_transact
    try:
        slow = point.measure(SMALL, DEFAULT_SEED, trace=False)
        slow_traced = point.measure(SMALL, DEFAULT_SEED, trace=True)
    finally:
        MemoryBus.transact = orig

    # the experiment itself is untouched by the delay and by tracing
    prints = {p["fingerprint"] for p in (base, base_traced, slow,
                                         slow_traced)}
    assert len(prints) == 1
    assert not base["errors"] and not slow["errors"]

    rise = slow["run_s"] - base["run_s"]
    assert 0.7 * expected < rise < 1.5 * expected, (rise, expected)

    bus_rise = (slow_traced["layers"]["bus.self_s"]
                - base_traced["layers"]["bus.self_s"])
    assert 0.8 * expected < bus_rise < 1.3 * expected, (bus_rise, expected)
    others = [k for k in base_traced["layers"]
              if k.endswith(("self_s", "barrier_s", "merge_s"))
              and k != "bus.self_s"]
    other_rise = sum(slow_traced["layers"][k] - base_traced["layers"][k]
                     for k in others)
    assert abs(other_rise) < 0.25 * expected, (other_rise, expected)


def test_traced_generators_forward_throw_and_close():
    tracer = LayerTracer()

    def body():
        try:
            got = yield 1
            yield got * 2
        except KeyError as err:
            yield f"caught {err.args[0]}"
        finally:
            tracer.counts["closed"] = 1

    gen = tracer.traced_gen(body(), "x.body")
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == "caught k"
    gen.close()
    assert tracer.counts["closed"] == 1
    gen = tracer.traced_gen(body(), "x.body")
    assert next(gen) == 1
    assert gen.send(21) == 42
    with pytest.raises(StopIteration):
        next(gen)
    rec = tracer.tables["build"]["x.body"]
    assert rec[1] == 5 and rec[3] >= 0.0 and not tracer._stack


def test_tracer_uninstall_restores_the_program():
    from repro.bus.bus import MemoryBus
    from repro.sim.engine import Engine

    before = (MemoryBus.transact, Engine.process, Engine.run_window)
    tracer = LayerTracer().install()
    assert MemoryBus.transact is not before[0]
    tracer.uninstall()
    assert (MemoryBus.transact, Engine.process, Engine.run_window) == before
    assert tracer.missing == []


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"][1] == "perfbench/run.py"
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_reference_records_both_seeds_of_every_workload():
    ref = run.load_reference()
    assert (ref["default_seed"], ref["held_out_seed"]) == (DEFAULT_SEED,
                                                           HELD_OUT_SEED)
    count_names = {n for n, unit, _ in run.PER_LAYER if unit == "count"}
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            entry = ref[name][str(seed)]
            assert len(entry["fingerprint"]) == 64
            assert set(entry["counts"]) == count_names


def test_scaling_to_reference_speed_touches_only_host_times():
    from calibrate import REFERENCE_S

    point_ = {"errors": [], "wall_s": 4.0, "setup_s": 1.0, "run_s": 2.0,
              "sim_ns_per_s": 500.0, "peak_rss_mb": 100.0, "now_ns": 1000.0,
              "counts": {"sim.events": 10, "sim.events_per_s": 5.0},
              "layers": {"bus.self_s": 0.5, "mp.poll_yield": 0.25}}
    # the host ran the reference loop twice as slowly as the reference
    run.scale_to_reference(point_, 2 * REFERENCE_S, 2 * REFERENCE_S)
    assert point_["raw"] == {"wall_s": 4.0, "setup_s": 1.0, "run_s": 2.0,
                             "sim_ns_per_s": 500.0, "peak_rss_mb": 100.0}
    assert (point_["wall_s"], point_["setup_s"], point_["run_s"]) == (
        2.0, 0.5, 1.0)
    assert point_["sim_ns_per_s"] == 1000.0
    assert point_["peak_rss_mb"] == 100.0 and point_["now_ns"] == 1000.0
    assert point_["counts"] == {"sim.events": 10, "sim.events_per_s": 10.0}
    assert point_["layers"] == {"bus.self_s": 0.25, "mp.poll_yield": 0.25}


def test_a_run_reports_total_host_time_over_total_loop_time():
    from calibrate import REFERENCE_S

    points = []
    for run_s, loop_s, rss in ((2.0, 0.1, 10.0), (6.0, 0.2, 30.0),
                               (3.0, 0.3, 20.0)):
        p = {"errors": [], "wall_s": run_s, "setup_s": run_s,
             "run_s": run_s, "sim_ns_per_s": 12.0 / run_s,
             "peak_rss_mb": rss, "counts": {}}
        run.scale_to_reference(p, loop_s, loop_s)
        points.append(p)
    total = REFERENCE_S * (2.0 + 6.0 + 3.0) / (0.1 + 0.2 + 0.3)
    assert run.combine(points, "run_s") == pytest.approx(total)
    assert run.combine(points, "sim_ns_per_s") == pytest.approx(12.0 / total)
    assert run.combine(points, "peak_rss_mb") == 20.0
