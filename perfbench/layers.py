"""Per-layer host-time tracing, installed from outside the program.

The traced run patches each layer's public entry points at run time; no
file under ``src/`` knows it is being measured.  Every wrapped call is a
span.  A layer's *self time* is the time of its spans minus the time of
the wrapped spans they called.  Generator functions (the simulator's
process fragments) are timed per resume, so a span never covers time the
generator spent suspended in the event heap.

Spans are not kept one by one: a run makes millions of them.  Each span
key keeps its call count, resume count, total and self time, per phase
(``build`` while the machine is constructed, ``run`` after), plus a
count per (caller key, callee key) edge.  The table is returned when the
point ends and written out by ``run.py``.

Three kinds of code are attributed by where they are defined rather than
by a list of names, so that renames inside a layer keep their layer:

* every process body, at :meth:`Engine.process`, by the module its
  generator was defined in (aP programs, CTRL/sP/switch service loops);
* every sP firmware handler, at registration (``ServiceProcessor.register``
  and the ``msg_handlers`` table), by the module of the handler;
* spans of code defined in a ``scenarios`` module, or outside ``repro``,
  are the workload's own scenario code: layer ``program``.

What no wrapper covers stays in the self time of the enclosing span; the
engine's scheduled callbacks, for instance, count as ``sim``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> public entry points, as ``module:Qualified.name``.  Missing
#: entries are skipped (and reported), so a rename degrades the per-layer
#: table instead of crashing the traced run.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "core": (
        "repro.core.machine:StarTVoyager.__init__",
        "repro.core.machine:StarTVoyager.spawn",
    ),
    "mem": (
        "repro.mem.cache:SnoopingL2.__init__",
        "repro.mem.cache:SnoopingL2.load",
        "repro.mem.cache:SnoopingL2.store",
        "repro.mem.cache:SnoopingL2.snoop",
        "repro.mem.dram:DRAM.__init__",
        "repro.mem.dram:DRAM.access",
        "repro.mem.sram:DualPortedSRAM.__init__",
        "repro.mem.backing:ByteBacking.__init__",
    ),
    "node": (
        "repro.node.node:NodeBoard.__init__",
        "repro.node.ap:ApApi.compute",
        "repro.node.ap:ApApi.sleep",
        "repro.node.ap:ApApi.wait",
        "repro.node.ap:ApApi.load",
        "repro.node.ap:ApApi.store",
        "repro.node.ap:ApApi.load_u32",
        "repro.node.ap:ApApi.store_u32",
    ),
    "bus": (
        "repro.bus.bus:MemoryBus.__init__",
        "repro.bus.bus:MemoryBus.transact",
    ),
    "mp": (
        "repro.mp.basic:BasicPort.__init__",
        "repro.mp.basic:BasicPort.send",
        "repro.mp.basic:BasicPort.send_reliable",
        "repro.mp.basic:BasicPort.stage_tagon",
        "repro.mp.basic:BasicPort.poll",
        "repro.mp.basic:BasicPort.recv",
        "repro.mp.basic:BasicPort._take",
    ),
    "niu": (
        "repro.niu.niu:NIU.__init__",
        "repro.niu.abiu:ABiu.snoop",
        "repro.niu.abiu:ABiu.serve",
        "repro.niu.ctrl:Ctrl.deliver",
        "repro.niu.ctrl:Ctrl.emit_command",
        "repro.niu.ctrl:Ctrl.emit_sync",
        "repro.niu.cmdproc:CommandProcessor.execute",
    ),
    "firmware": (
        "repro.firmware:install_default_firmware",
        "repro.firmware.base:fw_send",
        "repro.firmware.base:fw_recv_all",
        "repro.firmware.base:fw_dram_read",
        "repro.firmware.base:fw_dram_write",
    ),
    "net": (
        "repro.net.network:ArcticNetwork.__init__",
        "repro.net.network:NetworkPort.inject",
        "repro.net.link:Link.send",
        "repro.net.link:CutLinkTx.send",
        "repro.net.link:CutLinkRx.deliver",
        "repro.net.combine:CombineStage.accept",
    ),
    "coherence": (
        "repro.coherence.directory:DirectoryController.request",
        "repro.coherence.directory:DirectoryController.ack",
        "repro.coherence.directory:DirectoryController.wbdata",
        "repro.coherence.directory:DirectoryController.evict_clean",
        "repro.coherence.directory:DirectoryController.evict_dirty",
    ),
    "sync": (
        "repro.sync.api:SyncGroup.cell_op",
        "repro.sync.api:SyncGroup.tree_op",
        "repro.sync.api:Counter.add",
        "repro.sync.api:Counter.read",
        "repro.sync.api:Barrier.wait",
        "repro.sync.api:TasLock.acquire",
        "repro.sync.api:TasLock.release",
        "repro.sync.api:TicketLock.acquire",
        "repro.sync.api:TicketLock.release",
        "repro.sync.api:McsLock.acquire",
        "repro.sync.api:McsLock.release",
    ),
    "collectives": (
        "repro.collectives.api:tree_barrier",
        "repro.collectives.api:tree_bcast",
        "repro.collectives.api:tree_reduce",
        "repro.collectives.api:rd_allreduce",
        "repro.collectives.api:tree_gather",
    ),
    "lib": (
        "repro.lib.mpi:MiniMPI.__init__",
        "repro.lib.mpi:MpiRank.send",
        "repro.lib.mpi:MpiRank.recv",
        "repro.lib.mpi:MpiRank.barrier",
        "repro.lib.mpi:MpiRank.bcast",
        "repro.lib.mpi:MpiRank.gather",
        "repro.lib.mpi:MpiRank.reduce",
        "repro.lib.mpi:MpiRank.allreduce",
    ),
    "traffic": (
        "repro.traffic.kv:KvClient.__init__",
        "repro.traffic.train:TrainJob.__init__",
    ),
    "shm": (
        "repro.shm.scoma:ScomaRegion.__init__",
        "repro.shm.workloads:SharedHashTable.insert",
        "repro.shm.workloads:SharedHashTable.lookup",
    ),
    "sim": (
        "repro.sim.engine:Engine.run_window",
    ),
    "shard": (
        "repro.shard.runner:ShardedMachine.__init__",
        "repro.shard.runner:ShardedMachine.run",
        "repro.shard.boundary:ShardView.deliver",
    ),
    "obs": (
        "repro.obs.snapshot:shard_export",
        "repro.obs.snapshot:merge_shard_exports",
    ),
}

#: classes whose live instances are counted once the run has ended (a
#: wrapper on their constructors would cost more than the construction
#: and inflate the build times): count key -> ``module:Class``.
LIVE_COUNTS: Dict[str, str] = {
    "mem.cache_lines_built": "repro.mem.cache:CacheLine",
}

#: layer of code that belongs to no package layer: the scenario code.
PROGRAM = "program"


def layer_of_module(module: Optional[str]) -> str:
    """``repro.<package>...`` -> ``<package>``; scenario modules and
    anything outside ``repro`` -> :data:`PROGRAM`."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[-1] == "scenarios":
        return PROGRAM
    return parts[1]


class LayerTracer:
    """Span bookkeeping: a stack of open spans and per-key aggregates."""

    def __init__(self) -> None:
        self.phase = "build"
        #: phase -> key -> [calls, resumes, total_s, self_s]
        self.tables: Dict[str, Dict[str, List[float]]] = {"build": {},
                                                          "run": {}}
        #: (caller key, callee key) -> calls, over both phases
        self.edges: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self._stack: List[List[Any]] = []
        self._undo: List[Callable[[], None]] = []

    # -- span primitives -----------------------------------------------------

    def _call(self, key: str) -> None:
        """Count one call of ``key`` and its caller edge."""
        stack = self._stack
        edge = (stack[-1][0] if stack else "", key)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        rec = self.tables[self.phase].get(key)
        if rec is None:
            rec = self.tables[self.phase][key] = [0, 0, 0.0, 0.0]
        rec[0] += 1

    def _enter(self, key: str) -> None:
        self._stack.append([key, perf_counter(), 0.0])

    def _leave(self) -> None:
        end = perf_counter()
        stack = self._stack
        key, start, child = stack.pop()
        dur = end - start
        table = self.tables[self.phase]
        rec = table.get(key)
        if rec is None:
            rec = table[key] = [0, 0, 0.0, 0.0]
        rec[1] += 1
        rec[2] += dur
        rec[3] += dur - child
        if stack:
            stack[-1][2] += dur

    # -- wrappers --------------------------------------------------------------

    def traced_gen(self, gen, key: str):
        """A generator that drives ``gen``, timing each resume as a span."""
        enter, leave = self._enter, self._leave
        value, exc = None, None
        while True:
            enter(key)
            try:
                item = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            try:
                value, exc = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # thrown in: forward to gen
                value, exc = None, err

    def wrap(self, fn: Callable, key: str) -> Callable:
        """Span-timed stand-in for ``fn`` (generator-aware)."""
        call, enter, leave = self._call, self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            traced_gen = self.traced_gen

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                call(key)
                return traced_gen(fn(*args, **kwargs), key)
            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            call(key)
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    def wrap_by_module(self, fn: Callable) -> Callable:
        """Wrap a handler under the layer of the module defining it."""
        qual = getattr(fn, "__qualname__", getattr(fn, "__name__", "fn"))
        return self.wrap(fn, f"{layer_of_module(fn.__module__)}.{qual}")

    # -- installation ------------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        old = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _patch_function(self, module, name: str, key: str) -> None:
        """Replace a module function everywhere it was imported by name."""
        orig = getattr(module, name)
        new = self.wrap(orig, key)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(name) is orig):
                self._set(mod, name, new)

    def _resolve(self, spec: str):
        mod_name, qual = spec.split(":")
        try:
            obj = importlib.import_module(mod_name)
        except ImportError:
            return None, None, None
        *path, name = qual.split(".")
        owner = obj
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        if name not in getattr(owner, "__dict__", {}):
            return None, None, None
        return obj, owner, name

    def install(self) -> "LayerTracer":
        """Patch every entry point; call before the machine is built."""
        for layer, specs in ENTRY_POINTS.items():
            for spec in specs:
                module, owner, name = self._resolve(spec)
                if owner is None:
                    self.missing.append(spec)
                    continue
                key = f"{layer}.{spec.split(':')[1]}"
                if owner is module:
                    self._patch_function(module, name, key)
                else:
                    self._set(owner, name, self.wrap(owner.__dict__[name],
                                                     key))
        self._attribute_processes()
        self._attribute_firmware()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (in-process tests)."""
        while self._undo:
            self._undo.pop()()

    def count_live(self) -> None:
        """Fill :attr:`counts` from :data:`LIVE_COUNTS` (one heap walk)."""
        classes = {}
        for count_key, spec in LIVE_COUNTS.items():
            _module, owner, name = self._resolve(spec)
            if owner is None:
                self.missing.append(spec)
                continue
            classes[owner.__dict__[name]] = count_key
            self.counts[count_key] = 0
        for obj in gc.get_objects():
            key = classes.get(type(obj))
            if key is not None:
                self.counts[key] += 1

    def _attribute_processes(self) -> None:
        from repro.sim.engine import Engine

        orig = Engine.__dict__["process"]
        traced_gen, call = self.traced_gen, self._call
        traced_code = LayerTracer.traced_gen.__code__

        @wraps(orig)
        def process(engine, gen, name="", daemon=False):
            frame = getattr(gen, "gi_frame", None)
            if frame is None or gen.gi_code is traced_code:
                # not a plain generator, or already a traced entry point
                return orig(engine, gen, name, daemon)
            module = frame.f_globals.get("__name__")
            key = f"{layer_of_module(module)}.{gen.__qualname__}"
            call(key)
            body = traced_gen(gen, key)
            body.__name__ = gen.__name__
            return orig(engine, body, name, daemon)
        self._set(Engine, "process", process)

    def _attribute_firmware(self) -> None:
        from repro.niu.sp import ServiceProcessor

        tracer = self

        class HandlerTable(dict):
            """``sp.state["msg_handlers"]`` that wraps what it stores."""

            def __setitem__(self, msg_type, handler):
                super().__setitem__(msg_type, tracer.wrap_by_module(handler))

        init = ServiceProcessor.__dict__["__init__"]
        register = ServiceProcessor.__dict__["register"]

        @wraps(init)
        def sp_init(sp, *args, **kwargs):
            init(sp, *args, **kwargs)
            sp.state["msg_handlers"] = HandlerTable()

        @wraps(register)
        def sp_register(sp, kind, handler):
            register(sp, kind, tracer.wrap_by_module(handler))
        self._set(ServiceProcessor, "__init__", sp_init)
        self._set(ServiceProcessor, "register", sp_register)

    # -- results -------------------------------------------------------------------

    def self_by_layer(self, phase: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, rec in self.tables[phase].items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + rec[3]
        return out

    def calls(self, key: str) -> int:
        return int(sum(t[key][0] for t in self.tables.values() if key in t))

    def edge(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), 0)

    def table(self) -> Dict[str, Any]:
        """JSON-ready dump: per-phase span table, edges, counts."""
        return {
            "spans": {phase: {k: {"calls": int(r[0]), "resumes": int(r[1]),
                                  "total_s": r[2], "self_s": r[3]}
                              for k, r in sorted(t.items())}
                      for phase, t in self.tables.items()},
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
