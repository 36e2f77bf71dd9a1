"""sP firmware for the scalable-synchronization library.

Four services, all running on the node's embedded service processor
(the paper's "library functions may also run on the sP" claim, applied
to synchronization):

* **endpoint cells** (``MSG_SYNC_REQ``) — a serialized fetch-and-op
  server for the cells homed at this node.  This is the pure-endpoint
  fallback every primitive in :mod:`repro.sync.api` degrades to when
  the machine has no network or in-switch combining is off; it is also
  the hot-spot baseline the combining fabric is measured against.
* **central collective** (``MSG_SYNC_CBAR``) — the counting barrier /
  serialized allreduce: every member sends one arrival to the group's
  home sP, which folds values as they arrive and unicasts the result
  back out.  Deliberately O(N) at one node — the classic hot spot.
* **leaf inject** (``MSG_SYNC_INJECT``) — the bridge into in-network
  computing: the aP hands a packed :class:`~repro.net.combine.SyncTag`
  to its local sP, which stamps the fabric-facing fields and injects
  the tagged packet through the CTRL's TX path.  The sP is the
  combining tree's *leaf*: switch-resident combining starts one hop
  above it.
* **work deque** (``MSG_SYNC_DEQUE``) — an owner-resident LIFO/FIFO
  deque: the owner pushes and pops at the tail, thieves steal from the
  head, all serialized through the owner's sP (the standard
  work-stealing memory model, minus the CAS loop the serial firmware
  makes unnecessary).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.common.errors import FirmwareError
from repro.firmware.base import fw_send_to, register_msg_handler
from repro.firmware.proto import (
    DEQUE_POP,
    DEQUE_PUSH,
    DEQUE_STEAL,
    MSG_SYNC_CBAR,
    MSG_SYNC_DEQUE,
    MSG_SYNC_INJECT,
    MSG_SYNC_REQ,
    pack_sync_rep,
    pack_sync_tree_rep,
    unpack_sync_cbar,
    unpack_sync_deque,
    unpack_sync_inject,
    unpack_sync_req,
)
from repro.net.combine import OP_CSWAP, apply_op, unpack_tag

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


class _CentralOp:
    """One in-flight central collective at the home sP."""

    __slots__ = ("waiters", "acc", "have_acc", "op", "want")

    def __init__(self, op: int, want: int) -> None:
        self.waiters: List[Tuple[int, int]] = []
        self.acc = 0
        self.have_acc = False
        self.op = op
        self.want = want


class SyncFwState:
    """Per-node sync firmware state."""

    __slots__ = ("cells", "central", "deques")

    def __init__(self) -> None:
        #: endpoint-mode cells homed here: (group, cell) -> value.
        self.cells: Dict[Tuple[int, int], int] = {}
        #: central collectives in flight: (group, seq) -> _CentralOp.
        self.central: Dict[Tuple[int, int], _CentralOp] = {}
        #: work deques owned here, one per group.
        self.deques: Dict[int, List[int]] = {}


def setup_sync(sp: "ServiceProcessor") -> None:
    """Install the sync firmware on one node's sP (idempotent)."""
    if "sync" in sp.state:
        return
    sp.state["sync"] = SyncFwState()
    register_msg_handler(sp, MSG_SYNC_REQ, on_sync_req)
    register_msg_handler(sp, MSG_SYNC_CBAR, on_sync_cbar)
    register_msg_handler(sp, MSG_SYNC_INJECT, on_sync_inject)
    register_msg_handler(sp, MSG_SYNC_DEQUE, on_sync_deque)


def ensure_sync_firmware(machine) -> None:
    """Install the sync firmware cluster-wide (idempotent)."""
    for node in machine.nodes:
        setup_sync(node.sp)


def _state(sp: "ServiceProcessor") -> SyncFwState:
    st = sp.state.get("sync")
    if st is None:
        raise FirmwareError(f"{sp.name}: sync firmware not installed")
    return st


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------


def on_sync_req(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    """``MSG_SYNC_REQ``: serialized endpoint fetch-and-op."""
    yield sp.compute(sp.fw.sync_cell_insns)
    st = _state(sp)
    group, cell, op, origin, req, reply_queue, value, aux = \
        unpack_sync_req(payload)
    key = (group, cell)
    old = st.cells.get(key, 0)
    if op == OP_CSWAP:
        if old == aux:
            st.cells[key] = value
    else:
        st.cells[key] = apply_op(op, old, value)
    sp.stats.counter(f"{sp.name}.sync_cell_ops").incr()
    yield from fw_send_to(sp, origin, reply_queue,
                          pack_sync_rep(req, old))


def on_sync_cbar(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    """``MSG_SYNC_CBAR``: central counting barrier / serial allreduce."""
    yield sp.compute(sp.fw.sync_barrier_insns)
    st = _state(sp)
    group, seq, origin, n, reply_queue, op, value = unpack_sync_cbar(payload)
    key = (group, seq)
    pend = st.central.get(key)
    if pend is None:
        pend = st.central[key] = _CentralOp(op, n)
    if pend.have_acc:
        pend.acc = apply_op(op, pend.acc, value)
    else:
        pend.acc = value
        pend.have_acc = True
    pend.waiters.append((origin, reply_queue))
    if len(pend.waiters) < pend.want:
        return
    # everyone arrived: release serially (the hot-spot cost is the point)
    del st.central[key]
    sp.stats.counter(f"{sp.name}.sync_central_ops").incr()
    rep = pack_sync_tree_rep(group, seq, pend.acc)
    for member, rq in pend.waiters:
        yield from fw_send_to(sp, member, rq, rep)


def on_sync_inject(sp: "ServiceProcessor", src: int, payload: bytes
                   ) -> Generator["Event", None, None]:
    """``MSG_SYNC_INJECT``: leaf of the combining tree — into the fabric."""
    yield sp.compute(sp.fw.sync_inject_insns)
    tag = unpack_tag(unpack_sync_inject(payload))
    tag.origin = sp.node_id
    sp.stats.counter(f"{sp.name}.sync_injects").incr()
    yield from sp.ctrl.emit_sync(tag)


def on_sync_deque(sp: "ServiceProcessor", src: int, payload: bytes
                  ) -> Generator["Event", None, None]:
    """``MSG_SYNC_DEQUE``: owner-resident work-stealing deque."""
    yield sp.compute(sp.fw.sync_deque_insns)
    st = _state(sp)
    group, verb, origin, req, reply_queue, value = unpack_sync_deque(payload)
    dq = st.deques.setdefault(group, [])
    if verb == DEQUE_PUSH:
        dq.append(value)
        sp.stats.counter(f"{sp.name}.deque_pushes").incr()
        yield from fw_send_to(sp, origin, reply_queue,
                              pack_sync_rep(req, len(dq)))
        return
    if verb == DEQUE_POP:
        ok = bool(dq)
        got = dq.pop() if ok else 0
    elif verb == DEQUE_STEAL:
        ok = bool(dq)
        got = dq.pop(0) if ok else 0
        if ok:
            sp.stats.counter(f"{sp.name}.deque_steals").incr()
    else:
        raise FirmwareError(f"{sp.name}: unknown deque verb {verb}")
    yield from fw_send_to(sp, origin, reply_queue,
                          pack_sync_rep(req, got, ok=ok))


__all__ = [
    "SyncFwState",
    "ensure_sync_firmware",
    "setup_sync",
]
