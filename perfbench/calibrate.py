"""Host-speed calibration: a fixed pure-Python loop timed around each point.

The shared host this benchmark runs on changes speed by a quarter or
more from one minute to the next, for every process alike: the same
fixed loop takes anywhere from 0.09 to 0.19 s.  ``run.py`` times
:func:`reference_loop` in its own process just before and just after
each point and scales the point's host times by ``REFERENCE_S`` over the
mean of the two.  A reported time is therefore the point's host time on
a host where the reference loop takes ``REFERENCE_S`` seconds.

The loop is the benchmark's own code, run in the parent process, so the
program being measured cannot change it: a change that makes the
simulator 10 % faster lowers the scaled times by 10 %.  It does what
the simulator's host time is made of (calls, attribute and dict access,
integer arithmetic) and allocates no containers, so it never triggers
the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import time

#: the scale of every reported time: the reference loop's typical time
#: on the host the benchmark was defined on (2-vCPU Xeon, Python 3.11).
REFERENCE_S = 0.15
#: iterations of one timing of the reference loop.
LOOP_ITERS = 600_000


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, k: int) -> int:
        self.value = (self.value + k) & 0xFFFF
        return self.value


_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
_COUNTER = _Counter()


def reference_loop(iters: int = LOOP_ITERS) -> float:
    """Seconds taken by one run of the fixed loop."""
    get = _TABLE.get
    bump = _COUNTER.bump
    acc = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(iters):
            k = i & 255
            acc ^= get(k, 0) + bump(k)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
