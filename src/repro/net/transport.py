"""Windowed message transport (the TCP stand-in).

Each flow keeps at most ``window_segments`` segments inside the NIC
(queued or serializing); every completed serialization refills the window.
This reproduces the ACK-clocked interleaving of concurrent TCP flows in a
FIFO qdisc — the mechanism behind the paper's straggler effect — without
simulating acknowledgements (the bottleneck under study is the sender NIC,
and RTTs on a single-switch 10 Gbps fabric are tens of microseconds).

Receivers register a callback per local port; a message is delivered when
all of its bytes have arrived.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net._native import segpath
from repro.net.addressing import FlowKey
from repro.net.nic import NIC
from repro.net.packet import Message, Segment, segment_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

DEFAULT_SEGMENT_BYTES = 128 * 1024
DEFAULT_WINDOW_SEGMENTS = 8
#: window-jitter draws prefetched per numpy call
_WINDOW_BLOCK = 64


class _SendState:
    """Per-flow sender state: pending segments, in-flight count, cwnd.

    ``window`` is the current congestion window (AIMD under losses);
    ``base_window`` is the flow's drawn maximum.
    """

    __slots__ = ("pending", "in_flight", "window", "base_window", "ssthresh")

    def __init__(self, window: int, slow_start: bool = False) -> None:
        self.pending: Deque[Segment] = deque()
        self.in_flight = 0
        self.base_window = window
        if slow_start:
            self.window = 1.0
            self.ssthresh = float(window)
        else:
            self.window = float(window)
            self.ssthresh = 0.0  # already at/above threshold

    def on_loss(self) -> None:
        """Multiplicative decrease (and exit slow start)."""
        self.window = max(1.0, self.window / 2.0)
        self.ssthresh = self.window

    def on_progress(self) -> None:
        """Window growth per served segment.

        Below ``ssthresh``: slow start (+1 per segment, i.e. doubling per
        window).  Above: congestion avoidance (+1 per window's worth).
        Capped at the flow's drawn maximum.
        """
        if self.window >= self.base_window:
            return
        if self.window < self.ssthresh:
            self.window = min(self.base_window, self.window + 1.0)
        else:
            self.window = min(self.base_window, self.window + 1.0 / self.window)


class _RecvState:
    """Per-message receiver state."""

    __slots__ = ("received", "message")

    def __init__(self, message: Message) -> None:
        self.received = 0
        self.message = message


class Transport:
    """Per-host transport endpoint bound to the host NIC."""

    __slots__ = (
        "sim",
        "nic",
        "segment_bytes",
        "window_segments",
        "window_jitter",
        "rto",
        "slow_start",
        "_send_states",
        "_recv_states",
        "_listeners",
        "on_deliver",
        "tolerate_unrouted",
        "messages_sent",
        "messages_delivered",
        "messages_unrouted",
        "segments_lost",
        "segments_retransmitted",
        "_window_stream",
        "_window_rng",
        "_window_buf",
        "_window_buf_i",
    )

    def __init__(
        self,
        sim: "Simulator",
        nic: NIC,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        window_segments: int = DEFAULT_WINDOW_SEGMENTS,
        window_jitter: float = 0.0,
        rto: float = 0.2,
        slow_start: bool = False,
    ) -> None:
        """``window_jitter`` models TCP's unequal bandwidth shares.

        Each new flow draws its window uniformly from
        ``window_segments * [1 - jitter, 1 + jitter]``.  Under a FIFO
        qdisc a flow's share of a congested NIC is proportional to its
        window, so jitter > 0 spreads the completion times of concurrent
        equal-size transfers — the tail-straggler effect of paper §IV-A.
        Zero keeps the transport deterministic (unit tests).
        """
        if window_segments < 1:
            raise NetworkError(f"window must be >= 1 segment, got {window_segments}")
        if not 0.0 <= window_jitter < 1.0:
            raise NetworkError(f"window_jitter must be in [0, 1), got {window_jitter}")
        self.sim = sim
        self.nic = nic
        self.segment_bytes = segment_bytes
        self.window_segments = window_segments
        self.window_jitter = window_jitter
        self.rto = rto
        self.slow_start = slow_start
        self._send_states: Dict[FlowKey, _SendState] = {}
        self._recv_states: Dict[int, _RecvState] = {}
        self._listeners: Dict[int, Callable[[Message], None]] = {}
        #: observation hook: called with each reassembled message before
        #: it is routed, so it also sees a message that arrives for a
        #: port with no listener (telemetry taps this instead of
        #: wrapping listeners)
        self.on_deliver: Optional[Callable[[Message], None]] = None
        #: when True, a message arriving for a port with no listener is
        #: counted and dropped instead of raising — fault-injection runs
        #: enable this so traffic in flight to a crashed task is survivable
        self.tolerate_unrouted = False
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_unrouted = 0
        self.segments_lost = 0
        self.segments_retransmitted = 0
        self._window_stream = f"tcp-window/{nic.host_id}"
        self._window_rng = None
        self._window_buf = None
        self._window_buf_i = 0

        nic.on_segment_sent = self._on_segment_serialized
        nic.on_receive = self._on_segment_arrival
        nic.on_segment_dropped = self._on_local_drop

    # -- sending ----------------------------------------------------------

    def send_message(self, message: Message) -> None:
        """Queue a message for transmission on its flow."""
        flow = message.flow
        if flow.src_host != self.nic.host_id:
            raise NetworkError(
                f"message flow {flow} does not originate at "
                f"{self.nic.host_id}"
            )
        message.created_at = self.sim.now
        self.messages_sent += 1
        state = self._send_states.get(flow)
        if state is None:
            state = _SendState(self._draw_window(), slow_start=self.slow_start)
            self._send_states[flow] = state
        pending = state.pending
        size = message.size
        if size <= self.segment_bytes:
            # One-segment message: no slicing list.
            pending.append(Segment(message, 0, size, True))
        else:
            pending.extend(segment_message(message, self.segment_bytes))
        # _refill inlined for the common (not loss-tolerant) NIC, as in
        # ``_on_segment_serialized``.  ``pending`` is non-empty and the
        # window is at least one segment, so the flow never drains here.
        nic = self.nic
        if nic.loss_tolerant:
            self._refill(flow, state)
            return
        limit = int(state.window)
        n = state.in_flight
        send = nic.send
        while pending and n < limit:
            seg = pending.popleft()
            n += 1
            state.in_flight = n
            send(seg)

    def _draw_window(self) -> int:
        jitter = self.window_jitter
        if jitter == 0.0:
            return self.window_segments
        # Draws are prefetched in blocks: Generator.uniform(size=n)
        # consumes the bit stream exactly like n scalar calls, so the
        # drawn sequence — pinned by the result hashes — is unchanged,
        # while the per-draw numpy call overhead is amortized (windows
        # are drawn per flow and per RTO flow resurrect, which is hot
        # under incast).  A block is a list of Python floats (no
        # ``float()`` per draw); 64 of them take the memory a numpy
        # block of 256 did.
        i = self._window_buf_i
        buf = self._window_buf
        if buf is None or i >= len(buf):
            rng = self._window_rng
            if rng is None:
                rng = self._window_rng = self.sim.rng.stream(self._window_stream)
            buf = self._window_buf = rng.uniform(
                1.0 - jitter, 1.0 + jitter, _WINDOW_BLOCK
            ).tolist()
            i = 0
        self._window_buf_i = i + 1
        return max(1, round(self.window_segments * buf[i]))

    def _refill(self, flow: FlowKey, state: _SendState) -> None:
        # Burst fast path: while the window allows, hand segments to the
        # NIC back to back.  ``nic.send`` only touches the qdisc (the
        # serializer keeps draining on its own clock), so no scheduling
        # decision can change between two pushes of the same burst — but
        # ``state.window`` can when the NIC is loss-tolerant (egress
        # drops are reported synchronously), so only that case re-reads
        # the bound each iteration.
        pending = state.pending
        nic = self.nic
        send = nic.send
        if nic.loss_tolerant:
            while pending and state.in_flight < int(state.window):
                seg = pending.popleft()
                state.in_flight += 1
                send(seg)
        else:
            limit = int(state.window)
            n = state.in_flight
            while pending and n < limit:
                seg = pending.popleft()
                n += 1
                # Write-through before the send: a qdisc-full NetworkError
                # must leave the same state the per-iteration loop would.
                state.in_flight = n
                send(seg)
        if state.in_flight == 0 and not pending:
            del self._send_states[flow]

    # ``_on_segment_serialized`` is compiled (``_segpath.c``, bound below
    # the class): it frees the segment's window slot, grows the window
    # (``_SendState.on_progress`` inlined) and refills it from the
    # flow's pending segments, as ``_refill`` does for a NIC that is not
    # loss tolerant (a loss-tolerant NIC goes through ``_refill``).

    # -- loss recovery -----------------------------------------------------

    def on_segment_lost(self, seg: Segment) -> None:
        """A switch port dropped this flow's segment (incast overflow).

        Models a TCP retransmission timeout: the segment is re-queued
        after ``rto`` seconds and the flow's congestion window halves.
        """
        self.segments_lost += 1
        try:
            self._send_states[seg.flow].on_loss()
        except KeyError:
            pass  # flow drained meanwhile; the retransmit resurrects it
        self.sim.schedule_fire(self.rto, self._retransmit, (seg,))

    def _on_local_drop(self, seg: Segment) -> None:
        """The local egress qdisc head-dropped an accepted segment.

        Unlike a switch drop (where the segment had already left the NIC),
        a local drop still holds a window slot — release it, then treat
        the loss like any other (halve the window, retransmit after RTO).
        """
        state = self._send_states.get(seg.flow)
        if state is not None and state.in_flight > 0:
            state.in_flight -= 1
        self.on_segment_lost(seg)

    def _retransmit(self, seg: Segment) -> None:
        self.segments_retransmitted += 1
        state = self._send_states.get(seg.flow)
        if state is None:
            # Flow drained at the sender meanwhile: resurrect it (with a
            # conservative window) to carry the retransmission.
            state = _SendState(self._draw_window(), slow_start=self.slow_start)
            state.on_loss()
            self._send_states[seg.flow] = state
        state.pending.appendleft(seg)  # retransmissions go first
        self._refill(seg.flow, state)

    # -- receiving ------------------------------------------------------------

    def listen(self, port: int, callback: Callable[[Message], None]) -> None:
        """Deliver fully-reassembled messages addressed to ``port``."""
        if port in self._listeners:
            raise NetworkError(f"port {port} already has a listener on {self.nic.host_id}")
        self._listeners[port] = callback

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    # ``_on_segment_arrival`` is compiled too: a segment of a multi-
    # segment message is counted into its ``_RecvState``; a complete
    # message is stamped ``delivered_at``, shown to ``on_deliver`` and
    # handed to its port's listener (counted under ``tolerate_unrouted``
    # when there is none, else a ``NetworkError``).

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Transport {self.nic.host_id} flows={len(self._send_states)} "
            f"sent={self.messages_sent} delivered={self.messages_delivered}>"
        )


Transport._on_segment_serialized, Transport._on_segment_arrival = (
    segpath.bind_transport(Transport, _SendState, _RecvState)
)
