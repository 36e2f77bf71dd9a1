"""Shard-count parity: the sharded engine's determinism contract.

The headline requirement of the conservative parallel-in-time runner is
that sharding is *invisible* in the results: the merged, wall-stripped
metrics snapshot must be byte-identical at any shard count, for healthy
and faulted machines alike, in both the inline and the forked-worker
backend.  These tests pin that down with ``shards=1`` as the baseline.
"""

import json
import os

import pytest

import repro
from repro.bench import comparable
from repro.common.errors import ConfigError, SimulationError
from repro.shard import (
    MixedScenario,
    PingScenario,
    ShardPlan,
    SyncScenario,
    boundary_link_names,
    run_scenario,
    scenario,
)
from repro.sim.engine import Engine, INFINITY

N_NODES = 8


def _canon(snapshot):
    """Wall-stripped snapshot as canonical bytes (byte-identity check)."""
    return json.dumps(comparable(snapshot), sort_keys=True, default=repr)


def _run(scn, shards, backend="inline"):
    return run_scenario(scn, n_nodes=N_NODES, shards=shards, backend=backend)


# ----------------------------------------------------------------------
# the partitioner
# ----------------------------------------------------------------------

def test_plan_blocks_cover_all_nodes_contiguously():
    cfg = repro.default_config(n_nodes=N_NODES)
    for k in (1, 2, 3, 4, 8):
        cfg.shards = k
        plan = ShardPlan(cfg)
        nodes = [n for s in range(k) for n in plan.nodes_of(s)]
        assert nodes == list(range(N_NODES))
        for s in range(k):
            assert all(plan.node_shard(n) == s for n in plan.nodes_of(s))


def test_plan_assigns_every_switch():
    cfg = repro.default_config(n_nodes=N_NODES)
    cfg.shards = 2
    plan = ShardPlan(cfg)
    for level, index in plan.topology.switch_ids():
        assert 0 <= plan.switch_shard(level, index) < 2


def test_config_rejects_bad_shard_counts():
    cfg = repro.default_config(n_nodes=4)
    cfg.shards = 0
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.shards = 5
    with pytest.raises(ConfigError):
        cfg.validate()


def test_sharded_config_requires_shard_view():
    cfg = repro.default_config(n_nodes=4)
    cfg.shards = 2
    with pytest.raises(ConfigError):
        repro.StarTVoyager(cfg)


# ----------------------------------------------------------------------
# engine window primitives
# ----------------------------------------------------------------------

def test_engine_inject_rejects_lookahead_violation():
    eng = Engine()
    eng._schedule_call(lambda: None, delay=10.0)
    eng.run()
    assert eng.now == 10.0
    with pytest.raises(SimulationError):
        eng.inject(5.0, lambda: None)


def test_engine_window_stops_strictly_before_bound():
    eng = Engine()
    hits = []
    for t in (1.0, 2.0, 3.0):
        eng.inject(t, lambda t=t: hits.append(t))
    assert eng.run_window(3.0) == 3.0
    assert hits == [1.0, 2.0]
    assert eng.run_window(INFINITY) == INFINITY
    assert hits == [1.0, 2.0, 3.0]


def test_engine_advance_to_refuses_to_skip_work():
    eng = Engine()
    eng.inject(7.0, lambda: None)
    with pytest.raises(SimulationError):
        eng.advance_to(8.0)
    eng.run()
    eng.advance_to(11.0)
    assert eng.now == 11.0


# ----------------------------------------------------------------------
# the parity matrix (the acceptance bar)
# ----------------------------------------------------------------------

def test_mixed_workload_parity_matrix():
    """shards=1/2/4 on the mixed workload: byte-identical snapshots and
    identical message histories."""
    base = _run(MixedScenario(), 1)
    base_bytes = _canon(base.snapshot)
    base_log = sorted(sum(base.results, []))
    assert base_log, "mixed workload must actually deliver messages"
    for k in (2, 4):
        run = _run(MixedScenario(), k)
        assert run.snapshot["shards"] == k
        assert _canon(run.snapshot) == base_bytes
        assert sorted(sum(run.results, [])) == base_log


def test_fig3_latency_parity():
    base = _run(PingScenario(sizes=(4, 64), pings=2), 1)
    rtts = [r["rtts"] for r in base.results if r["rtts"] is not None]
    assert rtts and all(r["echo_ok"] is not False for r in base.results)
    run = _run(PingScenario(sizes=(4, 64), pings=2), 4)
    assert _canon(run.snapshot) == _canon(base.snapshot)
    assert [r["rtts"] for r in run.results if r["rtts"] is not None] == rtts


def test_sync_collectives_parity():
    base = _run(SyncScenario(), 1)
    sums = {k: v for r in base.results for k, v in r.items()}
    assert sums == {r: N_NODES * (N_NODES + 1) // 2 for r in range(N_NODES)}
    run = _run(SyncScenario(), 2)
    assert _canon(run.snapshot) == _canon(base.snapshot)
    assert {k: v for r in run.results for k, v in r.items()} == sums


def test_chaos_link_down_crossing_shard_boundary():
    """A fault plan that downs a link cut by the shard boundary must
    produce the identical history at every shard count."""
    base = _run(scenario("chaos"), 1)
    assert base.snapshot["counters"].get("faults.link_down", 0) > 0
    # the downed links really do cross the boundary at shards=2
    cfg = repro.default_config(n_nodes=N_NODES)
    cfg.shards = 2
    plan = ShardPlan(cfg)
    victims = boundary_link_names(cfg)[:2]
    assert victims
    for name in victims:
        a, b = name.split("->")
        def side(tag):
            if tag.startswith("n"):
                return plan.node_shard(int(tag[1:]))
            level, index = tag[2:].split(".")
            return plan.switch_shard(int(level), int(index))
        assert side(a) != side(b), name
    run = _run(scenario("chaos"), 2)
    assert _canon(run.snapshot) == _canon(base.snapshot)
    assert sorted(sum(run.results, [])) == sorted(sum(base.results, []))


def test_process_backend_matches_inline():
    """The forked-worker backend replays the exact inline history (only
    boundary messages and exports cross the pipes)."""
    base = _run(MixedScenario(rounds=3), 1)
    run = _run(MixedScenario(rounds=3), 2, backend="process")
    assert _canon(run.snapshot) == _canon(base.snapshot)
    assert sorted(sum(run.results, [])) == sorted(sum(base.results, []))


def test_sharded_run_reports_plan_and_windows():
    run = _run(MixedScenario(rounds=2), 2)
    assert run.plan["shards"] == 2
    assert [b for b in run.plan["blocks"]] == [[0, 4], [4, 8]]
    assert run.windows > 0


@pytest.mark.parametrize("scn", [MixedScenario(rounds=2),
                                 scenario("shm_takeover")],
                         ids=lambda scn: scn.name)
def test_uncut_machine_runs_one_window_per_phase(scn):
    """With no cut channel there is nothing to wait for: a one-shard run
    takes the engine's loop to quiescence once per phase."""
    run = _run(scn, 1)
    assert run.windows == scn.phases
    assert 0 < run.plan["lookahead_ns"] < INFINITY  # still the wire latency


class _DyingScenario(MixedScenario):
    """Kills shard 1's worker process outright during setup."""

    def setup(self, phase, machine, local_nodes, ctx):
        if 0 not in local_nodes:
            os._exit(3)
        super().setup(phase, machine, local_nodes, ctx)


def test_process_backend_reports_a_dead_worker():
    with pytest.raises(SimulationError, match=r"shard 1 worker exited \(code 3\)"):
        _run(_DyingScenario(), 2, backend="process")
