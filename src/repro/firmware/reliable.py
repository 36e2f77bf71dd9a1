"""Reliable delivery: go-back-N ack/retransmit firmware over Basic messages.

The paper's Arctic network never drops a packet, so the shipped NIU
firmware assumes lossless links.  This module removes that assumption:
a sender-side go-back-N window with cumulative acknowledgements and
timeout-driven retransmission turns the (possibly faulted, see
:mod:`repro.faults`) datagram fabric into a reliable, in-order channel —
entirely in sP firmware, exactly the "firmware is the flexible layer"
argument of the paper.

Protocol shape (all knobs in
:class:`~repro.common.config.ReliabilityConfig`):

* the aP submits a segment with one Basic *loopback* send of
  ``MSG_REL_SEND`` into its own node's ``SP_REL_TX_QUEUE``
  (:meth:`repro.mp.basic.BasicPort.send_reliable`);
* the sP drains that queue only while the destination flow's window has
  room.  A full window leaves requests queued, the loopback path blocks,
  and the aP's producer-pointer poll spins — end-to-end backpressure
  from a bounded retransmit buffer, with no firmware stall (incoming
  DATA and ACKs ride *other* queues, so two windowed peers cannot
  deadlock each other);
* each drained request gets the flow's next sequence number, is held in
  the window (the retransmit buffer), and travels as ``MSG_REL_DATA`` to
  the destination's ``SP_REL_QUEUE`` on the low-priority network;
* the receiver keeps one expected-seq counter per source and **no**
  reorder buffer (go-back-N): the in-order segment is delivered straight
  into its destination logical queue with the *original* source node in
  the rx header; anything else is dropped.  Every arrival is answered
  with a cumulative ``MSG_REL_ACK`` on the **high-priority** network
  (the protocol transmit queue), so acks overtake bulk data;
* a per-flow retransmit timer resends the whole window on expiry and
  backs off exponentially (capped); any cumulative progress resets it.

Sequence numbers are 16-bit serial numbers; all comparisons go through
:func:`seq_lt`, so windows wrap transparently (the window just has to
stay far below ``SEQ_MOD / 2``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Tuple

from repro.common.errors import FirmwareError
from repro.firmware.base import (
    fw_send_to,
    register_msg_handler,
    register_queue_dispatcher,
)
from repro.firmware.proto import (
    MSG_REL_ACK,
    MSG_REL_DATA,
    pack_rel_ack,
    pack_rel_data,
    unpack_rel_ack,
    unpack_rel_data,
    unpack_rel_send,
)
from repro.niu.msgformat import HEADER_BYTES, MAX_PAYLOAD
from repro.niu.niu import (
    SP_PROTOCOL_QUEUE,
    SP_REL_QUEUE,
    SP_REL_TX_QUEUE,
    SP_TX_PROTOCOL,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: sequence-number space (16-bit serial arithmetic).
SEQ_MOD = 1 << 16
#: MSG_REL_DATA overhead: type + dst_queue + 2-byte seq.
REL_HEADER_BYTES = 4
#: largest user payload one reliable segment can carry.
REL_MAX_PAYLOAD = MAX_PAYLOAD - REL_HEADER_BYTES


def seq_lt(a: int, b: int) -> bool:
    """Serial-number ``a < b`` in the 16-bit circular space."""
    return 0 < (b - a) % SEQ_MOD < SEQ_MOD // 2


class _Flow:
    """Sender-side go-back-N state toward one destination node."""

    __slots__ = ("dst", "seq_next", "pending", "rto", "timer_gen",
                 "timer_armed", "acked", "retransmits")

    def __init__(self, dst: int, rto: float) -> None:
        self.dst = dst
        #: next sequence number to assign.
        self.seq_next = 0
        #: the window / retransmit buffer: (seq, dst_queue, payload),
        #: oldest first, never longer than the configured window.
        self.pending: Deque[Tuple[int, int, bytes]] = deque()
        #: current retransmission timeout (backs off on expiry).
        self.rto = rto
        #: timers carry their generation; acks/expiries bump it, so a
        #: stale scheduled callback is recognized and ignored.
        self.timer_gen = 0
        self.timer_armed = False
        self.acked = 0
        self.retransmits = 0


class ReliableState:
    """Per-node reliability firmware state."""

    def __init__(self) -> None:
        self.flows: Dict[int, _Flow] = {}
        #: receiver side: next expected seq per source node.
        self.rx_expected: Dict[int, int] = {}

    def flow(self, dst: int, rto: float) -> _Flow:
        f = self.flows.get(dst)
        if f is None:
            f = self.flows[dst] = _Flow(dst, rto)
        return f


def setup_reliable(sp: "ServiceProcessor") -> None:
    """Install the reliable-delivery engine on one node's sP."""
    sp.state["rel"] = ReliableState()
    register_msg_handler(sp, MSG_REL_DATA, on_rel_data)
    register_msg_handler(sp, MSG_REL_ACK, on_rel_ack)
    register_queue_dispatcher(sp, SP_REL_TX_QUEUE, rel_tx_dispatcher)
    sp.register("rel.timer", on_rel_timer)


def ensure_reliable(machine) -> None:
    """Install the reliable engine cluster-wide where missing."""
    for node in machine.nodes:
        if "rel" not in node.sp.state:
            setup_reliable(node.sp)


def _state(sp: "ServiceProcessor") -> ReliableState:
    st = sp.state.get("rel")
    if st is None:
        raise FirmwareError(f"{sp.name}: reliable firmware not installed")
    return st


# ----------------------------------------------------------------------
# sender side
# ----------------------------------------------------------------------


def rel_tx_dispatcher(sp: "ServiceProcessor", logical: int
                      ) -> Generator["Event", None, None]:
    """Drain ``SP_REL_TX_QUEUE`` while the window has room.

    A request whose flow's window is full stays in the hardware queue
    (with everything behind it — one tx queue is one FIFO); the queue
    filling up is what backpressures the aP.  ACK processing re-posts
    this dispatcher when cumulative progress opens the window.
    """
    st = _state(sp)
    ctrl = sp.ctrl
    cfg = ctrl.config.reliability
    slot = ctrl.rx_cache.resident().get(logical)
    if slot is None:
        return
    q = ctrl.rx_queues[slot]
    while not q.is_empty:
        offset = q.slot_offset(q.consumer)
        raw = yield from sp.sbiu.read_ssram(offset, HEADER_BYTES)
        length = raw[3]
        payload = yield from sp.sbiu.read_ssram(offset + HEADER_BYTES, length)
        dst_queue, dst_node, user = unpack_rel_send(payload)
        flow = st.flow(dst_node, cfg.timeout_ns)
        if len(flow.pending) >= cfg.window:
            sp.stats.counter(f"{sp.name}.rel.backpressured").incr()
            return
        yield sp.compute(sp.fw.recv_msg_insns)
        yield from sp.sbiu.immediate(
            lambda i=slot, c=q.consumer + 1: ctrl.rx_consumer_update(i, c)
        )
        yield from _send_segment(sp, st, flow, dst_queue, user)


def _send_segment(sp: "ServiceProcessor", st: ReliableState, flow: _Flow,
                  dst_queue: int, user: bytes
                  ) -> Generator["Event", None, None]:
    """Assign the next seq, hold the segment in the window, launch it."""
    yield sp.compute(sp.fw.rel_send_insns)
    seq = flow.seq_next
    flow.seq_next = (seq + 1) % SEQ_MOD
    flow.pending.append((seq, dst_queue, user))
    san = sp.sanitizer
    if san is not None:
        san.on_rel_tx(sp, flow)
    sp.stats.counter(f"{sp.name}.rel.segments").incr()
    yield from fw_send_to(sp, flow.dst, SP_REL_QUEUE,
                          pack_rel_data(dst_queue, seq) + user)
    if not flow.timer_armed:
        _arm_timer(sp, flow)


def _arm_timer(sp: "ServiceProcessor", flow: _Flow) -> None:
    """Schedule the flow's retransmit timer at its current RTO."""
    flow.timer_armed = True
    gen = flow.timer_gen
    dst = flow.dst
    sp.engine._schedule_call(
        lambda: sp.sbiu.post_event(("rel.timer", dst, gen)),
        delay=flow.rto,
    )


def on_rel_timer(sp: "ServiceProcessor", event: Tuple
                 ) -> Generator["Event", None, None]:
    """Retransmit timer expiry: resend the whole window, back off."""
    _kind, dst_node, gen = event
    st = _state(sp)
    flow = st.flows.get(dst_node)
    if flow is None or gen != flow.timer_gen:
        return  # stale timer: progress re-armed a newer one
    flow.timer_gen += 1
    flow.timer_armed = False
    if not flow.pending:
        return
    yield sp.compute(sp.fw.rel_timer_insns)
    sp.stats.counter(f"{sp.name}.rel.timeouts").incr()
    for seq, dst_queue, user in tuple(flow.pending):
        flow.retransmits += 1
        sp.stats.counter(f"{sp.name}.rel.retransmits").incr()
        yield from fw_send_to(sp, dst_node, SP_REL_QUEUE,
                              pack_rel_data(dst_queue, seq) + user)
    cfg = sp.ctrl.config.reliability
    flow.rto = min(flow.rto * cfg.backoff, cfg.max_timeout_ns)
    _arm_timer(sp, flow)


def on_rel_ack(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    """Cumulative ACK: release the window prefix, reset the timer."""
    yield sp.compute(sp.fw.rel_ack_insns)
    st = _state(sp)
    flow = st.flows.get(src)
    if flow is None:
        return
    ack = unpack_rel_ack(payload)
    progressed = False
    while flow.pending and seq_lt(flow.pending[0][0], ack):
        flow.pending.popleft()
        flow.acked += 1
        progressed = True
    if not progressed:
        sp.stats.counter(f"{sp.name}.rel.dup_acks").incr()
        return
    cfg = sp.ctrl.config.reliability
    flow.rto = cfg.timeout_ns
    flow.timer_gen += 1  # invalidate the outstanding timer
    flow.timer_armed = False
    if flow.pending:
        _arm_timer(sp, flow)
    _kick_tx(sp)


def _kick_tx(sp: "ServiceProcessor") -> None:
    """Re-post the tx dispatcher if backpressured requests are waiting."""
    slot = sp.ctrl.rx_cache.resident().get(SP_REL_TX_QUEUE)
    if slot is not None and not sp.ctrl.rx_queues[slot].is_empty:
        sp.sbiu.post_event(("rxmsg", slot, SP_REL_TX_QUEUE))


# ----------------------------------------------------------------------
# receiver side
# ----------------------------------------------------------------------


def on_rel_data(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    """One DATA segment: deliver if in order, always re-ack."""
    yield sp.compute(sp.fw.rel_data_insns)
    st = _state(sp)
    dst_queue, seq, user = unpack_rel_data(payload)
    expected = st.rx_expected.get(src, 0)
    san = sp.sanitizer
    if san is not None:
        san.on_rel_rx(sp, src, seq, expected)
    if seq == expected:
        st.rx_expected[src] = expected = (expected + 1) % SEQ_MOD
        sp.stats.counter(f"{sp.name}.rel.delivered").incr()
        # deliver with the *original* source in the rx header (the sP
        # spoofs src here the way CTRL loopback cannot)
        yield from sp.ctrl.deliver(dst_queue, src, user)
    elif seq_lt(seq, expected):
        # retransmission of something already delivered: the ack below
        # is exactly what the sender is missing
        sp.stats.counter(f"{sp.name}.rel.duplicates").incr()
    else:
        # a gap: go-back-N receivers hold no reorder buffer, so drop and
        # dup-ack; the sender's timer replays the window in order
        sp.stats.counter(f"{sp.name}.rel.out_of_order").incr()
    # acks ride the protocol tx queue: they must overtake the data
    yield from fw_send_to(sp, src, SP_PROTOCOL_QUEUE, pack_rel_ack(expected),
                          tx=SP_TX_PROTOCOL)
