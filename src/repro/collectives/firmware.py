"""The ``CollectiveUnit``: sP firmware that runs collectives in the NIU.

"Library functions may also run on the sP" — this module is the paper's
extensibility claim exercised end to end: collectives move off the aP
into firmware without touching the core hardware.  Each node's sP holds
per-``(communicator, sequence)`` combining state along a spanning tree
(:class:`~repro.collectives.plan.TreePlan`):

* the aP contributes with **one** Basic enqueue to the local sP service
  queue (``MSG_COLL_REQ``);
* the sP combines its aP's contribution with its children's subtree
  contributions *as they arrive* and forwards a single combined
  ``MSG_COLL_UP`` message to its tree parent — one message per tree edge
  instead of N-1 messages through one root;
* the root sP turns the fully combined value around as ``MSG_COLL_DOWN``
  messages that fan back out over the tree, and every sP delivers the
  result into its local aP's receive queue, formatted as a mini-MPI
  fragment so the aP's ordinary tag-matched dequeue completes the
  collective.

Combining happens in arrival order, so the offloaded reduction path is
restricted to the commutative + associative named operators in
:data:`repro.collectives.plan.OPS`; host-side algorithms handle
arbitrary callables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.collectives import wire
from repro.collectives.plan import TreePlan, binomial_tree, op_by_code
from repro.common.errors import FirmwareError
from repro.firmware.base import fw_send_to, register_msg_handler
from repro.firmware.proto import MSG_COLL_DOWN, MSG_COLL_REQ, MSG_COLL_UP
from repro.niu.niu import SP_SERVICE_QUEUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


class _Pending:
    """Combining state of one in-flight collective at one sP."""

    __slots__ = ("kind", "op", "root", "tag", "reply_queue", "arrived",
                 "want", "acc")

    def __init__(self, msg: wire.CollMsg, want: int) -> None:
        self.kind = msg.kind
        self.op = msg.op
        self.root = msg.root
        self.tag = msg.tag
        self.reply_queue = msg.reply_queue
        self.arrived = 0
        self.want = want
        self.acc: Optional[int] = None


class CollectiveState:
    """Per-node collective firmware state: the tree and in-flight calls."""

    def __init__(self, plan: TreePlan) -> None:
        plan.validate()
        self.plan = plan
        self.pending: Dict[Tuple[int, int], _Pending] = {}


def setup_collectives(sp: "ServiceProcessor", plan: TreePlan) -> None:
    """Install the CollectiveUnit on one node's sP."""
    sp.state["collectives"] = CollectiveState(plan)
    register_msg_handler(sp, MSG_COLL_REQ, on_coll_request)
    register_msg_handler(sp, MSG_COLL_UP, on_coll_up)
    register_msg_handler(sp, MSG_COLL_DOWN, on_coll_down)


def ensure_collectives(machine, plan: Optional[TreePlan] = None) -> TreePlan:
    """Install collective firmware cluster-wide; return the active plan.

    With ``plan=None``, an already-installed CollectiveUnit keeps its
    plan and a missing one gets the default binomial tree.  An explicit
    differing ``plan`` *reinstalls* cluster-wide — runtime firmware
    reconfiguration is the platform's point — which is safe as long as no
    collective is in flight (in-flight combining state would refer to the
    old tree, so reinstalling rejects that case).
    """
    installed = [
        node.sp.state["collectives"]
        for node in machine.nodes if "collectives" in node.sp.state
    ]
    if installed and (plan is None or plan == installed[0].plan):
        return installed[0].plan
    if any(st.pending for st in installed):
        raise FirmwareError(
            "cannot replace the collective plan while collectives are "
            "in flight"
        )
    if plan is None:
        plan = binomial_tree(machine.config.n_nodes)
    for node in machine.nodes:
        setup_collectives(node.sp, plan)
    return plan


# ----------------------------------------------------------------------
# firmware handlers
# ----------------------------------------------------------------------


def _state(sp: "ServiceProcessor") -> CollectiveState:
    st = sp.state.get("collectives")
    if st is None:
        raise FirmwareError(f"{sp.name}: collective firmware not installed")
    return st


def on_coll_request(sp: "ServiceProcessor", src: int, payload: bytes
                    ) -> Generator["Event", None, None]:
    """``MSG_COLL_REQ``: the local aP's single enqueue."""
    yield sp.compute(sp.fw.coll_request_insns)
    st = _state(sp)
    msg = wire.unpack_coll(payload)
    if msg.kind == wire.KIND_BCAST:
        # broadcast has no combining phase: the root's request starts the
        # down-sweep immediately
        if sp.node_id != msg.root:
            raise FirmwareError(
                f"{sp.name}: bcast request at non-root rank {sp.node_id}"
            )
        yield from _down_sweep(sp, st, msg.tag, msg.reply_queue, msg.kind,
                               msg.comm, msg.seq, msg.data)
        return
    yield from _contribute(sp, st, msg)


def on_coll_up(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    """``MSG_COLL_UP``: a child subtree's combined contribution."""
    yield sp.compute(sp.fw.coll_combine_insns)
    st = _state(sp)
    msg = wire.unpack_coll(payload)
    yield from _contribute(sp, st, msg)


def on_coll_down(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    """``MSG_COLL_DOWN``: the result fanning back out over the tree."""
    yield sp.compute(sp.fw.coll_forward_insns)
    st = _state(sp)
    msg = wire.unpack_coll(payload)
    yield from _down_sweep(sp, st, msg.tag, msg.reply_queue, msg.kind,
                           msg.comm, msg.seq, msg.data)


# ----------------------------------------------------------------------
# the combining tree
# ----------------------------------------------------------------------


def _contribute(sp: "ServiceProcessor", st: CollectiveState,
                msg: wire.CollMsg) -> Generator["Event", None, None]:
    """Fold one contribution (local REQ or child UP) into pending state."""
    me = sp.node_id
    want = len(st.plan.children[me]) + 1  # children's UPs + the local REQ
    pend = st.pending.get(msg.key)
    if pend is None:
        pend = st.pending[msg.key] = _Pending(msg, want)
    if msg.data:
        value = wire.unpack_value(msg.data)
        if pend.acc is None:
            pend.acc = value
        else:
            yield sp.compute(sp.fw.coll_combine_insns)
            pend.acc = op_by_code(pend.op)(pend.acc, value)
    pend.arrived += 1
    if pend.arrived < pend.want:
        return
    # subtree complete
    del st.pending[msg.key]
    data = wire.pack_value(pend.acc) if pend.acc is not None else b""
    if me != st.plan.root:
        up = wire.pack_coll(MSG_COLL_UP, pend.kind, pend.op, msg.comm,
                            msg.seq, pend.root, pend.reply_queue, pend.tag,
                            data)
        parent = st.plan.parent[me]
        yield from fw_send_to(sp, parent, SP_SERVICE_QUEUE, up)
        return
    # fully combined at the root
    sp.stats.counter(f"{sp.name}.coll_completed").incr()
    if pend.kind == wire.KIND_REDUCE:
        # root-only result: no down phase at all
        yield from _deliver(sp, st, pend.tag, pend.reply_queue, data)
        return
    yield from _down_sweep(sp, st, pend.tag, pend.reply_queue, pend.kind,
                           msg.comm, msg.seq, data)


def _down_sweep(sp: "ServiceProcessor", st: CollectiveState, tag: int,
                reply_queue: int, kind: int, comm: int, seq: int,
                data: bytes) -> Generator["Event", None, None]:
    """Forward the result to tree children and the local aP."""
    me = sp.node_id
    for child in st.plan.children[me]:
        down = wire.pack_coll(MSG_COLL_DOWN, kind, 0, comm, seq,
                              st.plan.root, reply_queue, tag, data)
        yield from fw_send_to(sp, child, SP_SERVICE_QUEUE, down)
    yield from _deliver(sp, st, tag, reply_queue, data)


def _deliver(sp: "ServiceProcessor", st: CollectiveState, tag: int,
             reply_queue: int, data: bytes
             ) -> Generator["Event", None, None]:
    """Hand the result to the local aP as one mini-MPI fragment."""
    frag = (tag.to_bytes(2, "big") + len(data).to_bytes(4, "big")
            + (0).to_bytes(4, "big") + data)
    yield from fw_send_to(sp, sp.node_id, reply_queue, frag)
    sp.stats.counter(f"{sp.name}.coll_delivered").incr()
