"""The sharded conservative parallel-in-time runner.

One machine, ``K`` event queues.  Each shard builds a sub-machine that
holds only its own node boards and switches (see
:class:`~repro.shard.partition.ShardPlan` /
:class:`~repro.shard.boundary.ShardView`); the runner synchronizes them
with a lower-bound-timestamp window barrier:

1. **exchange** — every boundary message committed in the previous
   window is sorted canonically and injected into its target shard at
   its stamped arrival time; every shard then reports
   :meth:`~repro.sim.engine.Engine.peek_time`.
2. **window** — the global safe bound is ``B = min(peeks) + lookahead``
   where the lookahead is the Arctic wire latency (every cut channel —
   packets forward, credits backward — pays exactly one wire flight, so
   nothing committed during the window can arrive before ``B``).  Every
   shard executes strictly below ``B`` and drains its outbox.  A
   partition that cuts no channel (``shards=1``) has nothing to wait
   for: its bound is unbounded, so each phase runs as one window through
   the same dispatch loop as :meth:`~repro.sim.engine.Engine.run`.
3. Repeat until every heap is empty and no message is in flight; then
   align all clocks on the global maximum and fire drain hooks.

The same coordinator drives two backends through one handle protocol:
``inline`` (all shards in this process — deterministic reference, and
what the parity tests compare against ``shards=1``) and ``process``
(one forked worker per shard, the tentpole's scale path; only boundary
messages and final exports cross the pipes).  Workloads enter through a
:class:`~repro.shard.scenarios.ShardScenario`, which is the piece that
knows how to set up *one shard's slice* of a whole-machine workload.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.obs.snapshot import merge_shard_exports, shard_export
from repro.shard.boundary import BoundaryMessage, ShardView
from repro.shard.partition import ShardPlan
from repro.sim.engine import INFINITY

#: guard against a stuck barrier (a lookahead bug would otherwise spin
#: forever injecting nothing); generous — real runs take far fewer.
MAX_WINDOWS = 50_000_000


class ShardRun:
    """Everything a sharded execution produced."""

    def __init__(self, snapshot: Dict[str, Any], results: List[Any],
                 plan: Dict[str, Any], windows: int,
                 shard_events: List[int], shard_wall: List[float]) -> None:
        #: merged, shard-count-invariant metrics snapshot.
        self.snapshot = snapshot
        #: per-shard scenario results, indexed by shard.
        self.results = results
        #: the partition that ran (``ShardPlan.describe()``).
        self.plan = plan
        #: how many window barriers the run took — the sync-cost gauge.
        self.windows = windows
        #: events executed per shard (load balance; the parallelism
        #: ceiling is ``sum(shard_events) / max(shard_events)``).
        self.shard_events = shard_events
        #: wall seconds each shard's engine spent executing.
        self.shard_wall = shard_wall

    @property
    def parallelism(self) -> float:
        """Ideal speedup under this partition: total events over the
        busiest shard's events (what perfectly parallel workers achieve
        when the host has enough cores)."""
        busiest = max(self.shard_events, default=0)
        return sum(self.shard_events) / busiest if busiest else 1.0


# ----------------------------------------------------------------------
# shard handles: one protocol, two backends
# ----------------------------------------------------------------------

class _InlineShard:
    """A shard simulated in the coordinator's own process."""

    def __init__(self, config: MachineConfig, plan: ShardPlan,
                 shard: int, scenario) -> None:
        from repro.core.machine import StarTVoyager

        self.view = ShardView(plan, shard)
        self.machine = StarTVoyager(config, shard_view=self.view)
        self.scenario = scenario
        self.ctx: Dict[str, Any] = {}

    def channels(self) -> Tuple[List[str], List[str]]:
        return (list(self.view.rx_halves), list(self.view.tx_halves))

    def setup(self, phase: int) -> None:
        self.scenario.setup(phase, self.machine, self.view.local_nodes,
                            self.ctx)

    def exchange(self, inbound: Sequence[BoundaryMessage]) -> float:
        engine = self.machine.engine
        for msg in inbound:
            self.view.deliver(engine, msg)
        return engine.peek_time()

    def window(self, until: float) -> List[BoundaryMessage]:
        self.machine.engine.run_window(until)
        return self.view.drain_outbox()

    def now(self) -> float:
        return self.machine.now

    def advance(self, time: float) -> None:
        self.machine.engine.advance_to(time)

    def finish(self) -> None:
        self.machine.engine.finish_windows()

    def result(self) -> Tuple[Any, Dict[str, Any]]:
        res = self.scenario.result(self.machine, self.view.local_nodes,
                                   self.ctx)
        return res, shard_export(self.machine)

    def close(self) -> None:
        pass


#: the handle protocol: every op a coordinator may ask of a shard.
_HANDLE_OPS = ("setup", "exchange", "window", "now", "advance", "finish",
               "result", "channels")


def _worker_main(conn, config: MachineConfig, plan: ShardPlan, shard: int,
                 scenario) -> None:
    """Process-backend worker: one shard, driven over a pipe.

    The worker is forked, so config/plan/scenario arrive by inheritance;
    only boundary messages, peeks, and the final export cross the pipe.
    """
    try:
        inner = _InlineShard(config, plan, shard, scenario)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        op, *args = conn.recv()
        if op == "exit":
            conn.close()
            return
        try:
            if op not in _HANDLE_OPS:
                raise SimulationError(f"unknown shard handle op {op!r}")
            conn.send(("ok", getattr(inner, op)(*args)))
        except BaseException:
            conn.send(("error", traceback.format_exc()))


class _ProcessShard:
    """A shard running in a forked worker, spoken to over a pipe."""

    def __init__(self, config: MachineConfig, plan: ShardPlan,
                 shard: int, scenario) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.shard = shard
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main, args=(child, config, plan, shard, scenario),
            daemon=True, name=f"shard-{shard}",
        )
        self._proc.start()
        child.close()

    def _call(self, op: str, *args: Any) -> Any:
        try:
            self._conn.send((op, *args))
            status, value = self._conn.recv()
        except (EOFError, OSError):
            # the worker died without replying; reap it for its exit code
            self._proc.join(timeout=30)
            raise SimulationError(
                f"shard {self.shard} worker exited "
                f"(code {self._proc.exitcode})") from None
        if status == "error":
            raise SimulationError(f"shard worker failed:\n{value}")
        return value

    def channels(self):
        return self._call("channels")

    def setup(self, phase: int) -> None:
        self._call("setup", phase)

    def exchange(self, inbound) -> float:
        return self._call("exchange", inbound)

    def window(self, until: float):
        return self._call("window", until)

    def now(self) -> float:
        return self._call("now")

    def advance(self, time: float) -> None:
        self._call("advance", time)

    def finish(self) -> None:
        self._call("finish")

    def result(self):
        return self._call("result")

    def close(self) -> None:
        try:
            self._conn.send(("exit",))
            self._conn.close()
        except (BrokenPipeError, OSError):  # worker already died
            pass
        self._proc.join(timeout=30)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

class ShardedMachine:
    """``K`` shard sub-machines plus the window-barrier coordinator.

    The front door is :func:`run_scenario`; construct this directly only
    when a test wants to poke at the sub-machines between phases (inline
    backend only exposes them as :attr:`machines`).
    """

    def __init__(self, config: MachineConfig, scenario,
                 backend: str = "inline") -> None:
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        config.validate()
        self.config = config
        self.scenario = scenario
        self.backend = backend
        self.plan = ShardPlan(config)
        cls = _InlineShard if backend == "inline" else _ProcessShard
        self.shards = [cls(config, self.plan, s, scenario)
                       for s in range(config.shards)]
        #: channel name -> shard index holding the rx / tx half.
        self._rx_owner: Dict[str, int] = {}
        self._tx_owner: Dict[str, int] = {}
        for i, h in enumerate(self.shards):
            rx, tx = h.channels()
            for name in rx:
                self._rx_owner[name] = i
            for name in tx:
                self._tx_owner[name] = i
        self.windows = 0

    @property
    def machines(self) -> List[Any]:
        """The shard sub-machines (inline backend only)."""
        return [h.machine for h in self.shards
                if isinstance(h, _InlineShard)]

    # -- the window barrier -------------------------------------------------

    def _route(self, msg: BoundaryMessage) -> int:
        from repro.shard.boundary import MSG_PKT

        _t, channel, _seq, kind, _payload = msg
        owners = self._rx_owner if kind == MSG_PKT else self._tx_owner
        return owners[channel]

    def _drive(self) -> None:
        """Run windows until the whole machine is quiescent."""
        # with no cut channel nothing can arrive from another shard, so
        # one window runs the phase to quiescence
        lookahead = self.plan.lookahead_ns if self._rx_owner else INFINITY
        k = len(self.shards)
        inbound: List[List[BoundaryMessage]] = [[] for _ in range(k)]
        while True:
            peeks = [h.exchange(inbound[i])
                     for i, h in enumerate(self.shards)]
            t_min = min(peeks)
            if t_min == INFINITY:
                return
            self.windows += 1
            if self.windows > MAX_WINDOWS:
                raise SimulationError(
                    f"window barrier did not converge after {MAX_WINDOWS} "
                    "windows (lookahead bug?)")
            bound = t_min + lookahead
            outs = [h.window(bound) for h in self.shards]
            msgs: List[BoundaryMessage] = []
            for out in outs:
                msgs.extend(out)
            # canonical total order: (arrival time, channel, seq, kind) —
            # identical in any backend, so injection order (and thus the
            # target engines' sequence numbering) is reproducible.
            msgs.sort(key=lambda m: m[:4])
            inbound = [[] for _ in range(k)]
            for msg in msgs:
                inbound[self._route(msg)].append(msg)

    def run(self) -> ShardRun:
        """Execute every scenario phase to global quiescence and merge."""
        try:
            for phase in range(self.scenario.phases):
                if phase:
                    # phase barrier: the next phase must start from one
                    # common instant or spawn times would depend on K
                    gmax = max(h.now() for h in self.shards)
                    for h in self.shards:
                        h.advance(gmax)
                for h in self.shards:
                    h.setup(phase)
                self._drive()
            gmax = max(h.now() for h in self.shards)
            for h in self.shards:
                h.advance(gmax)
            for h in self.shards:
                h.finish()
            pairs = [h.result() for h in self.shards]
        finally:
            for h in self.shards:
                h.close()
        results = [res for res, _export in pairs]
        exports = [e for _res, e in pairs]
        snapshot = merge_shard_exports(exports, self.config)
        return ShardRun(snapshot, results, self.plan.describe(), self.windows,
                        [e["events_executed"] for e in exports],
                        [e["wall_seconds"] for e in exports])


def run_scenario(scenario, config: Optional[MachineConfig] = None,
                 n_nodes: int = 4, shards: int = 1, seed: int = 0,
                 backend: str = "inline") -> ShardRun:
    """The front door: run one scenario on a sharded machine.

    Either pass a ready ``config`` (its ``shards`` field wins) or let the
    helper build a default one from ``n_nodes``/``shards``/``seed``.
    ``shards=1`` runs the identical coordinator with one sub-machine —
    the determinism baseline every other shard count must match
    byte-for-byte (wall-clock gauges stripped).
    """
    if config is None:
        from repro.common.config import default_config

        config = default_config(n_nodes=n_nodes)
        config.seed = seed
        config.shards = shards
    scenario.prepare(config)
    return ShardedMachine(config, scenario, backend=backend).run()
