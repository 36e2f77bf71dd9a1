"""The benchmark's workloads: one simulation point each.

Every workload is one registered :mod:`repro.shard` scenario at a fixed
size.  The seed is ``MachineConfig.seed``: it drives the KV arrival
schedules and keys, the fat-tree routing hash and the sync-plan root
spread, so two seeds are two different experiments.

The simulated results (latency percentiles, goodput, makespan) are
*checked outputs*, never metrics: a change that only makes the simulator
faster cannot move them, and one that does has changed the model.  Each
point must pass its scenario's own check, and at a seed recorded in
``reference.json`` its modelled-results fingerprint must match.

Why these three (layer exercised / layer bypassed):

``kv_open``   open-loop Poisson KV serving, 64 nodes, two inline shards.
              Past the goodput knee, so NIU queues and the miss-queue
              path are loaded; the only workload that crosses a shard
              boundary and merges two shard exports; build-heavy (S-COMA
              state is built for 64 nodes and never touched).  Bypasses
              coherence, sync and collectives.
``shm_hash``  striped-lock shared hash table on 8 nodes: inserts, then
              lookups.  Run-heavy, with the densest window barrier (about
              four events per window); exercises the MSI directory,
              S-COMA firmware and in-switch combining.  Bypasses the KV
              store, MiniMPI and collectives.
``train_nic`` closed-loop training steps, allreduce on the sP
              CollectiveUnit, 16 nodes.  The only workload that runs
              ``collectives/`` and MiniMPI allreduce; bypasses coherence
              and shard boundaries.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple


class Workload(NamedTuple):
    name: str
    scenario: str
    kwargs: Dict[str, Any]
    n_nodes: int
    shards: int
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "kv_open", "traffic_kv",
        {"per_node": 8, "rate_rps": 100_000.0, "skew": 1.1,
         "put_fraction": 0.25, "transport": "basic"},
        n_nodes=64, shards=2,
        why="64-node open-loop KV past the goodput knee on 2 shards: "
            "build-heavy, NIU queues, boundary messages and shard merge; "
            "bypasses coherence, sync and collectives"),
    Workload(
        "shm_hash", "shm_hash", {"lock_mode": "switch"},
        n_nodes=8, shards=1,
        why="8-node S-COMA hash table under switch ticket locks: run-heavy, "
            "MSI directory, sP coherence firmware, in-switch combining, "
            "densest window barrier; bypasses KV and collectives"),
    Workload(
        "train_nic", "traffic_train",
        {"mode": "allreduce", "algo": "nic", "steps": 4},
        n_nodes=16, shards=1,
        why="16-node closed-loop training steps with NIC-offloaded "
            "allreduce: the only workload running collectives/ and "
            "MiniMPI; bypasses coherence and shard boundaries"),
)}

#: the seed a run uses when none is given, and whose fingerprint is
#: recorded for every workload.
DEFAULT_SEED = 1
#: a second recorded seed, not used while tuning: a claimed gain must
#: also hold on it.
HELD_OUT_SEED = 2


def check(workload: Workload, run) -> List[str]:
    """The scenario's own correctness check; returns the failures."""
    errors: List[str] = []
    if workload.scenario == "shm_hash":
        for key in ("inserted", "found"):
            ranks: Dict[int, bool] = {}
            for shard_result in run.results:
                ranks.update(shard_result.get(key) or {})
            if sorted(ranks) != list(range(workload.n_nodes)):
                errors.append(f"{key}: ranks {sorted(ranks)}")
            bad = sorted(r for r, ok in ranks.items() if not ok)
            if bad:
                errors.append(f"{key} false on ranks {bad}")
        return errors
    app = "kv" if workload.scenario == "traffic_kv" else "ps"
    traffic = run.snapshot.get("traffic", {}).get(app)
    if not traffic:
        return [f"no traffic.{app} section in the snapshot"]
    if workload.scenario == "traffic_kv":
        expected = workload.kwargs["per_node"] * workload.n_nodes
    else:
        expected = workload.kwargs["steps"] * workload.n_nodes
    if traffic["offered"] != expected:
        errors.append(f"offered {traffic['offered']} != {expected}")
    if traffic["completed"] != traffic["offered"]:
        errors.append(f"completed {traffic['completed']} != offered "
                      f"{traffic['offered']}")
    return errors
