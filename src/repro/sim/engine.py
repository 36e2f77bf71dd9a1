"""The discrete-event engine.

A binary-heap scheduler over *scheduled items*: 5-tuples of
``(time, seq, kind, target, arg)``.  The sequence number makes
scheduling deterministic — two items scheduled for the same instant run
in the order they were scheduled, on every run, on every platform — and,
because it is unique, tuple comparison terminates at ``seq`` and never
inspects ``kind``/``target``/``arg``.  Determinism is a hard requirement
here: the whole point of the platform is comparing mechanisms, and noise
from dict/heap tie-breaking would poison those comparisons.

Every public run method (:meth:`Engine.run`,
:meth:`Engine.run_until_triggered`, :meth:`Engine.run_window`) is a thin
wrapper over one private dispatch loop, :meth:`Engine._loop`, which
executes items strictly below a time bound.  The ``kind`` field selects
one of three inlined dispatch paths in that loop (see DESIGN.md
§"Simulation kernel fast paths"):

====  ==============  =====================================================
kind  name            meaning
====  ==============  =====================================================
0     CALL            ``target`` is a no-arg callable; ``arg`` unused
1     SUCCEED         ``target`` is an :class:`Event`; succeed with ``arg``
2     CALLBACKS       ``target`` is a callback list; ``arg`` the event
====  ==============  =====================================================

Earlier revisions stored a closure per entry (``lambda: ev.succeed(v)``)
— one allocation per scheduled event plus an indirect call at dispatch.
The tagged-tuple layout removes both, which matters: the kernel executes
hundreds of thousands of items per wall second.

Time is a float in nanoseconds (see :mod:`repro.common.units`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import nextafter
from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.sim.process import ProcGen, Process

#: scheduled-item kinds — element 2 of a heap entry.
KIND_CALL = 0
KIND_SUCCEED = 1
KIND_CALLBACKS = 2

#: "no scheduled work": the lower-bound timestamp of an empty heap.
INFINITY = float("inf")

#: one heap entry: (time, seq, kind, target, arg).
ScheduledItem = Tuple[float, int, int, Any, Any]


class SchedulePolicy:
    """Chooses which of several same-timestamp items runs next.

    With a policy installed on :attr:`Engine.schedule_policy`, the
    dispatch loop turns a group of heap entries tied at the minimal timestamp
    into an explicit *decision point*: the whole tie group is popped (in
    seq order, so ``ready[0]`` is what the default scheduler would run),
    :meth:`choose` picks one, and the rest re-enter the heap with their
    original sequence numbers — their relative order, and their order
    against items scheduled later, is unchanged.  Items the chosen
    item's execution schedules at the same instant join the *next*
    decision point, so a policy sees every racy ordering the seq
    tie-break normally hides.

    The default policy — always index 0 — replays the engine's native
    seq order exactly; :mod:`repro.explore` builds DFS exploration and
    trace replay on top of this hook.
    """

    __slots__ = ()

    def choose(self, time: float, ready: List[ScheduledItem]) -> int:
        """Index into ``ready`` (len >= 2) of the item to execute now."""
        return 0


class Engine:
    """Event loop, clock, and factory for events and processes."""

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_crashes",
        "strict",
        "events_executed",
        "wall_seconds",
        "drain_hooks",
        "deadlock_dump",
        "process_registry",
        "schedule_policy",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[ScheduledItem] = []
        self._seq = 0
        self._crashes: List[Tuple[Process, BaseException]] = []
        #: processes whose failure should abort run() even if unjoined.
        self.strict = True
        #: total scheduled items executed — the observability layer's
        #: measure of how much simulation work a run cost.
        self.events_executed = 0
        #: wall-clock seconds spent in the dispatch loop, whichever of
        #: run()/run_until_triggered()/run_window() entered it; with
        #: :attr:`events_executed` this yields the
        #: :attr:`events_per_second` throughput gauge.
        self.wall_seconds = 0.0
        #: callables invoked whenever run() fully drains the heap — the
        #: sanitizer layer's hook for end-of-run invariants (credit
        #: conservation, deadlock detection).  Empty unless sanitizers
        #: are installed, so the off path costs one empty-list iteration
        #: per run() call.
        self.drain_hooks: List[Callable[[], None]] = []
        #: optional () -> str producing a wait-for-graph dump, appended
        #: to the drained-queue error in run_until_triggered().
        self.deadlock_dump: Optional[Callable[[], str]] = None
        #: when not None, every process created via :meth:`process` is
        #: appended here (the deadlock watchdog's roster).
        self.process_registry: Optional[List[Process]] = None
        #: optional :class:`SchedulePolicy`: when installed, groups of
        #: scheduled items tied at one timestamp become explicit decision
        #: points (see :meth:`_pop_decision`).  ``None`` (the default)
        #: keeps the plain seq-ordered pop — the byte-identical fast
        #: path.  Install before calling a run method: the dispatch loop
        #: hoists the attribute into a local once per call.
        self.schedule_policy: Optional["SchedulePolicy"] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcGen, name: str = "", daemon: bool = False) -> Process:
        """Start a generator as a process at the current time.

        ``daemon`` marks infrastructure service loops (queue pumps,
        dispatch kernels) that legitimately idle-block forever; the
        deadlock watchdog ignores them when deciding whether a drained
        event queue left real work stuck.
        """
        proc = Process(self, gen, name, daemon=daemon)
        registry = self.process_registry
        if registry is not None:
            registry.append(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Join helper: triggers when every event has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race helper: triggers on the first success."""
        return AnyOf(self, events)

    # -- scheduling (internal API used by events/processes) ---------------

    def _push(self, time: float, fn: Callable[[], None]) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, KIND_CALL, fn, None))

    def _schedule_call(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, KIND_CALL, fn, None))

    def _schedule_timeout(self, ev: Event, delay: float, value: Any) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, KIND_SUCCEED, ev, value))

    def _schedule_event_callbacks(
        self, ev: Event, callbacks: List[Callable[[Event], None]]
    ) -> None:
        # Callbacks run as a unit at the current time, after already-queued
        # same-time entries scheduled earlier.
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now, seq, KIND_CALLBACKS, callbacks, ev))

    def _pop_decision(self, policy: SchedulePolicy) -> ScheduledItem:
        """Pop the next item through a schedule policy.

        Gathers the whole group tied at the minimal timestamp (popped in
        seq order), lets ``policy`` choose one, and pushes the rest back
        unchanged.  A single-item group is not a decision point — the
        policy never sees it.
        """
        heap = self._heap
        first = heappop(heap)
        if not heap or heap[0][0] != first[0]:
            return first
        ready = [first]
        while heap and heap[0][0] == first[0]:
            ready.append(heappop(heap))
        index = policy.choose(first[0], ready)
        if not 0 <= index < len(ready):
            raise SimulationError(
                f"schedule policy chose index {index} out of "
                f"{len(ready)} ready items at t={first[0]:.1f}ns"
            )
        chosen = ready.pop(index)
        for item in ready:
            heappush(heap, item)
        return chosen

    def _note_process_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    def _crash_error(self) -> SimulationError:
        proc, exc = self._crashes[0]
        err = SimulationError(
            f"process {proc.name!r} crashed at t={self._now:.1f}ns"
        )
        err.__cause__ = exc
        return err

    # -- sharded execution (conservative parallel-in-time windows) ---------

    def peek_time(self) -> float:
        """Timestamp of the earliest scheduled item (``inf`` when empty).

        The sharded runner's lower-bound-timestamp exchange: every shard
        reports this, and the global safe window is their minimum plus
        the cross-shard lookahead.
        """
        heap = self._heap
        return heap[0][0] if heap else INFINITY

    def inject(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at an absolute ``time`` (boundary injection).

        Used by the shard runner to land cross-shard deliveries at their
        exact simulated timestamp.  Injection assigns the next sequence
        number, so messages injected back-to-back keep their injection
        order at equal timestamps — the runner sorts boundary messages
        canonically before injecting (see :mod:`repro.shard.runner`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot inject at {time} < now {self._now} (lookahead "
                "violation: the conservative window was too wide)"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, KIND_CALL, fn, None))

    def run_window(self, until: float) -> float:
        """Execute every item with ``time < until`` (strictly).

        Unlike :meth:`run`, items scheduled exactly at ``until`` stay
        queued — a window ``[t, until)`` must not consume events at the
        barrier instant, because a cross-shard message may still arrive
        *at* ``until`` and tie with them.  The clock is left at the last
        executed item (never forced to ``until``) and drain hooks do not
        fire: a drained shard heap mid-run only means the shard is idle
        until its next boundary injection.  Returns :meth:`peek_time`.
        """
        self._loop(until)
        return self.peek_time()

    def advance_to(self, time: float) -> None:
        """Move an idle clock forward to ``time`` (inter-phase sync).

        After a global drain, shard clocks sit at their last local event;
        a scenario's next phase must start from one common instant on
        every shard — the global maximum — or spawn times would diverge
        between shard counts.  Only ever moves forward, and never past
        scheduled work.
        """
        if self._heap and self._heap[0][0] < time:
            raise SimulationError(
                f"cannot advance to {time} past scheduled work at "
                f"{self._heap[0][0]}"
            )
        if time > self._now:
            self._now = time

    def finish_windows(self) -> None:
        """Run end-of-run hooks after the *global* sharded drain.

        :meth:`run_window` never fires drain hooks (a shard idling
        between windows has not finished); the runner calls this once on
        every shard when no shard has work and no message is in flight.
        """
        for hook in self.drain_hooks:
            hook()

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        Items scheduled exactly at ``until`` still run.  Returns the
        simulation time when execution stopped.  If a process crashed
        with an unhandled exception and ``strict`` is set (the default),
        the first crash is re-raised — silent process death is a
        debugging nightmare in a simulator of this size.
        """
        if until is None:
            self._loop(INFINITY)
        else:
            if until < self._now:
                raise SimulationError(f"cannot run until {until} < now {self._now}")
            self._loop(nextafter(until, INFINITY))
            self._now = until
        if not self._heap:
            for hook in self.drain_hooks:
                hook()
        return self._now

    def run_until_triggered(self, ev: Event, limit: Optional[float] = None) -> Any:
        """Run until ``ev`` triggers; return its value.

        Raises :class:`DeadlockError` if the event queue drains first (a
        deadlock from the waiter's perspective) or :class:`SimulationError`
        when the time ``limit`` is hit.  When the deadlock watchdog is
        installed, the drained-queue error carries its wait-for graph.
        """
        self._loop(INFINITY if limit is None else nextafter(limit, INFINITY), ev)
        if not ev.triggered:
            if self._heap:
                raise SimulationError(f"time limit {limit} hit before {ev!r}")
            msg = f"event queue drained before {ev!r} triggered (deadlock?)"
            dump = self.deadlock_dump
            if dump is not None:
                detail = dump()
                if detail:
                    msg += "\n" + detail
            raise DeadlockError(msg)
        return ev.value

    def _loop(self, bound: float, ev: Optional[Event] = None) -> None:
        """The dispatch loop behind every public run method.

        Executes items with ``time < bound`` (strictly) until the heap
        drains, the next item lies at or past ``bound``, or ``ev`` (when
        given) has triggered.  The schedule policy, the strict crash
        check and the :attr:`events_executed`/:attr:`wall_seconds`
        accounting live here and nowhere else.
        """
        heap = self._heap
        crashes = self._crashes
        policy = self.schedule_policy
        executed = 0
        t0 = perf_counter()
        try:
            while heap and heap[0][0] < bound:
                if ev is not None and (ev._value is not _PENDING
                                       or ev._exc is not None):
                    break
                if policy is None:
                    time, _seq, kind, target, arg = heappop(heap)
                else:
                    # every popped tie shares the first item's timestamp,
                    # so the whole group satisfies the `< bound` guard
                    time, _seq, kind, target, arg = self._pop_decision(policy)
                self._now = time
                executed += 1
                # Inline dispatch, most frequent kind first.
                if kind == 2:  # KIND_CALLBACKS
                    for cb in target:
                        cb(arg)
                elif kind == 1:  # KIND_SUCCEED (the Timeout fast path)
                    if target._value is not _PENDING or target._exc is not None:
                        raise SimulationError(f"event {target!r} triggered twice")
                    target._value = arg
                    callbacks = target._callbacks
                    target._callbacks = None
                    if callbacks:
                        self._seq = seq = self._seq + 1
                        heappush(heap, (time, seq, 2, callbacks, target))
                else:  # KIND_CALL
                    target()
                if crashes and self.strict:
                    raise self._crash_error()
        finally:
            self.events_executed += executed
            self.wall_seconds += perf_counter() - t0

    # -- introspection -----------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Entries currently in the scheduling heap (diagnostics)."""
        return len(self._heap)

    @property
    def events_per_second(self) -> float:
        """Wall-clock kernel throughput: executed items / run-loop seconds.

        This is a *wall-clock* gauge — it varies run to run with host
        load, so the observability layer reports it under ``sim.wall``,
        which determinism comparisons must strip.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds
