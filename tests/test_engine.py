"""The discrete-event engine: ordering, determinism, deadlock detection."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import INFINITY, Engine, SchedulePolicy


def test_time_starts_at_zero(engine):
    assert engine.now == 0.0


def test_timeout_advances_time(engine):
    ev = engine.timeout(100.0, value="done")
    assert engine.run_until_triggered(ev) == "done"
    assert engine.now == 100.0


def test_same_time_fifo_order(engine):
    order = []
    for i in range(5):
        engine.timeout(10.0).add_callback(lambda _e, i=i: order.append(i))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_run_in_time_order(engine):
    order = []
    for delay in (30.0, 10.0, 20.0):
        engine.timeout(delay, delay).add_callback(
            lambda e: order.append(e.value))
    engine.run()
    assert order == [10.0, 20.0, 30.0]


def test_run_until_limit(engine):
    engine.timeout(100.0)
    engine.timeout(500.0)
    t = engine.run(until=200.0)
    assert t == 200.0
    assert engine.pending_events == 1


def test_run_until_backwards_rejected(engine):
    engine.timeout(100.0)
    engine.run()
    with pytest.raises(SimulationError):
        engine.run(until=50.0)


def test_run_until_triggered_deadlock(engine):
    forever = engine.event()
    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_until_triggered(forever)


def test_run_until_triggered_time_limit(engine):
    def proc():
        yield engine.timeout(1000.0)

    p = engine.process(proc())
    with pytest.raises(SimulationError, match="limit"):
        engine.run_until_triggered(p, limit=100.0)


def test_process_crash_surfaces(engine):
    def bad():
        yield engine.timeout(10.0)
        raise RuntimeError("boom")

    engine.process(bad())
    with pytest.raises(SimulationError, match="crashed"):
        engine.run()


def test_crash_suppressed_when_not_strict(engine):
    engine.strict = False

    def bad():
        yield engine.timeout(10.0)
        raise RuntimeError("boom")

    engine.process(bad())
    engine.run()  # does not raise
    assert engine.now == 10.0


def test_determinism_across_engines():
    def build():
        eng = Engine()
        log = []

        def worker(name, delay):
            yield eng.timeout(delay)
            log.append((eng.now, name))
            yield eng.timeout(delay)
            log.append((eng.now, name))

        for i in range(4):
            eng.process(worker(f"p{i}", 5.0 + i))
        eng.run()
        return log

    assert build() == build()


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_zero_delay_timeout_runs(engine):
    ev = engine.timeout(0.0, "now")
    assert engine.run_until_triggered(ev) == "now"
    assert engine.now == 0.0


@pytest.mark.parametrize("method", ["run", "run_window", "run_until_triggered"])
def test_item_exactly_at_the_bound(method):
    """The three run methods share one loop but not one bound: run() and
    run_until_triggered() execute an item at exactly their bound,
    run_window() leaves it queued; drain hooks fire only when run()
    drains the heap."""
    eng = Engine()
    hooks = []
    eng.drain_hooks.append(lambda: hooks.append(eng.now))
    at_bound = eng.timeout(10.0, "hit")
    eng.timeout(20.0)  # keeps the heap non-empty past the bound
    if method == "run":
        assert eng.run(until=10.0) == 10.0
        assert at_bound.triggered and eng.now == 10.0
    elif method == "run_window":
        assert eng.run_window(10.0) == 10.0
        assert not at_bound.triggered and eng.now == 0.0
    else:
        assert eng.run_until_triggered(at_bound, limit=10.0) == "hit"
        assert eng.now == 10.0
    assert hooks == []  # stopping at a bound is not a drain
    if method == "run_window":
        assert eng.run_window(INFINITY) == INFINITY
        assert hooks == []  # a drained window still fires no hooks
    else:
        assert eng.run() == 20.0
        assert hooks == [20.0]


# ----------------------------------------------------------------------
# the schedule-policy hook
# ----------------------------------------------------------------------


class _Recorder(SchedulePolicy):
    """Canonical choices, recording every tie group it is offered."""

    def __init__(self):
        self.groups = []

    def choose(self, time, ready):
        self.groups.append((time, len(ready)))
        return 0


class _Reverser(SchedulePolicy):
    """Always pick the last ready item — maximal reordering."""

    def choose(self, time, ready):
        return len(ready) - 1


def _tie_run(policy):
    eng = Engine()
    eng.schedule_policy = policy
    order = []
    for i in range(4):
        eng.timeout(10.0).add_callback(lambda _e, i=i: order.append(i))
    eng.timeout(20.0).add_callback(lambda _e: order.append("late"))
    eng.run()
    return order


def test_policy_none_is_default_and_canonical():
    assert Engine().schedule_policy is None
    assert _tie_run(None) == [0, 1, 2, 3, "late"]


def test_base_policy_matches_policy_free_order():
    # SchedulePolicy's canonical choice must be byte-identical to the
    # plain heap order, so installing a policy is observable only if it
    # deviates
    assert _tie_run(SchedulePolicy()) == _tie_run(None)


def test_policy_receives_same_time_groups_only():
    rec = _Recorder()
    _tie_run(rec)
    # one 4-way group at t=10; the lone t=20 item never reaches choose
    assert (10.0, 4) in rec.groups
    assert all(t != 20.0 for t, _n in rec.groups)


def test_policy_reordering_takes_effect():
    order = _tie_run(_Reverser())
    assert order[:4] == [3, 2, 1, 0]
    assert order[-1] == "late"


def test_policy_bad_index_raises():
    class Bad(SchedulePolicy):
        def choose(self, time, ready):
            return len(ready)  # one past the end

    with pytest.raises(SimulationError):
        _tie_run(Bad())


def test_policy_applies_in_run_until_triggered():
    eng = Engine()
    eng.schedule_policy = _Reverser()
    order = []
    for i in range(3):
        eng.timeout(5.0).add_callback(lambda _e, i=i: order.append(i))
    done = eng.timeout(6.0, "done")
    assert eng.run_until_triggered(done) == "done"
    assert order == [2, 1, 0]
