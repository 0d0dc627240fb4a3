"""The host NIC: serializes outbound segments through a pluggable qdisc.

This is where TensorLights intervenes.  The NIC owns exactly one egress
qdisc (FIFO unless `tc` replaced it); it drains the qdisc at link rate and
notifies the transport when each segment has been serialized (the ACK-clock
hook that keeps per-flow windows full).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net._native import segpath
from repro.net.addressing import FlowKey
from repro.net.packet import Message, Segment
from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.fifo import PFifo
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

#: Guard against zero-progress retry loops in shaped qdiscs.
_MIN_RETRY_DELAY = 1e-9


class NIC:
    """A full-duplex network interface.

    TX: ``send`` enqueues into the qdisc; an internal serializer drains it
    at ``rate`` bytes/second.  RX: the wired peer calls ``receive``.

    Callbacks:
        on_segment_sent(segment): fired when a segment finishes serializing
            (transport window refill).
        on_receive(segment): fired on segment arrival.
        deliver(segment): wired by the topology — where serialized segments
            go next (the switch ingress), after link latency.
    """

    __slots__ = (
        "sim",
        "host_id",
        "rate",
        "qdisc",
        "loss_tolerant",
        "on_segment_sent",
        "on_receive",
        "on_segment_dropped",
        "_deliver",
        "_link_latency",
        "_fab_switch",
        "_fab_ports",
        "_rx_settle",
        "_tx_busy",
        "_retry_event",
        "bytes_tx",
        "bytes_rx",
        "segments_tx",
        "segments_rx",
        "busy_time",
        "_busy_since",
        "egress_drops",
        "qdisc_drops",
    )

    def __init__(
        self,
        sim: "Simulator",
        host_id: str,
        rate: float,
        qdisc: Optional[Qdisc] = None,
    ) -> None:
        if rate <= 0:
            raise NetworkError(f"NIC rate must be positive, got {rate}")
        self.sim = sim
        self.host_id = host_id
        self.rate = rate
        self.qdisc: Qdisc = qdisc if qdisc is not None else PFifo()
        self.qdisc.set_line_rate(rate)
        #: when True, an enqueue-time drop (e.g. netem loss) is reported
        #: through ``on_segment_dropped`` instead of raising — required
        #: for lossy qdiscs at a host NIC (robustness experiments)
        self.loss_tolerant = False
        self.on_segment_sent: Optional[Callable[[Segment], None]] = None
        self.on_receive: Optional[Callable[[Segment], None]] = None
        #: fired when the egress qdisc head-drops an accepted segment
        self.on_segment_dropped: Optional[Callable[[Segment], None]] = None
        self.qdisc.on_drop = self._handle_qdisc_drop
        self._deliver: Optional[Callable[[Segment], None]] = None
        self._link_latency = 0.0
        #: fast-path hooks: the fabric switch and its dst->port table —
        #: serialized segments route straight into their egress port
        #: (no ingress event), with the switch-level routing inlined into
        #: ``_tx_done`` (one call frame per segment saved)
        self._fab_switch = None
        self._fab_ports: Optional[dict] = None
        #: fast-path hook: flush lazily-deferred deliveries into this NIC
        #: before a reader samples the RX counters
        self._rx_settle: Optional[Callable[[], None]] = None

        self._tx_busy = False
        self._retry_event = None

        # counters
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.segments_tx = 0
        self.segments_rx = 0
        self.busy_time = 0.0
        self._busy_since = 0.0
        #: segments the qdisc refused at enqueue (netem loss, tolerated)
        self.egress_drops = 0
        #: accepted segments the qdisc head-dropped (HTB ``del_class``)
        self.qdisc_drops = 0

    # -- wiring ---------------------------------------------------------

    def attach_link(self, deliver: Callable[[Segment], None], latency: float) -> None:
        """Connect the TX side to a peer (done by the topology builder)."""
        self._deliver = deliver
        self._link_latency = latency

    def set_qdisc(self, qdisc: Qdisc) -> None:
        """``tc qdisc replace``: swap the egress qdisc.

        Divergence from Linux (docs/tc-mapping.md): the backlog of the
        old qdisc is migrated into the new one instead of dropped, so a
        reconfiguration mid-experiment never silently loses traffic.  A
        segment the new qdisc refuses (a lossy netem qdisc's draw) takes
        the ordinary egress-drop path, :meth:`_egress_drop`: a
        loss-tolerant NIC counts it and the transport retransmits it
        after the RTO; any other NIC raises :class:`NetworkError`.
        """
        now = self.sim.now
        pending = self.qdisc.drain_all(now)
        self.qdisc = qdisc
        self.qdisc.on_drop = self._handle_qdisc_drop
        qdisc.set_line_rate(self.rate)
        for seg in pending:
            if not qdisc.enqueue(seg, now):
                self._egress_drop(seg)
        self._cancel_retry()
        self._kick()

    # -- TX path ----------------------------------------------------------

    def set_rate(self, rate: float) -> None:
        """Change the line rate (fault injection: NIC degradation/flaps).

        A segment already serializing finishes at the old rate; the next
        dequeue sees the new one.
        """
        if rate <= 0:
            raise NetworkError(f"NIC rate must be positive, got {rate}")
        self.rate = rate
        self.qdisc.set_line_rate(rate)

    # ``send``, ``_kick`` and ``_tx_done`` are compiled (``_segpath.c``,
    # bound below the class); the rare branches they reach stay here.

    def _egress_drop(self, seg: Segment) -> None:
        """``send``'s rare branch: the qdisc refused ``seg``.

        Raises :class:`NetworkError` — queue limits are sized so drops
        never happen in a correctly configured experiment, and a loud
        failure beats a transport that waits forever.  Robustness
        experiments that *want* egress loss (netem) set
        :attr:`loss_tolerant`, which reports the drop to the transport
        (window-slot release + RTO retransmit) instead of raising.
        """
        if self.loss_tolerant and self.on_segment_dropped is not None:
            self.egress_drops += 1
            self.on_segment_dropped(seg)
            return
        raise NetworkError(
            f"qdisc on {self.host_id} dropped {seg!r} "
            f"(backlog={len(self.qdisc)})"
        )

    def _link_deliver(self, seg: Segment) -> None:
        """``_tx_done`` without a fabric port: deliver over the link."""
        if self._deliver is None:
            raise NetworkError(f"NIC {self.host_id} has no link attached")
        self.sim.schedule(self._link_latency, self._deliver, (seg,))

    def _handle_qdisc_drop(self, seg: Segment) -> None:
        """A qdisc head drop (HTB ``del_class``): notify the local transport."""
        self.qdisc_drops += 1
        if self.on_segment_dropped is not None:
            self.on_segment_dropped(seg)

    def _arm_retry(self) -> None:
        ready = self.qdisc.next_ready_time(self.sim.now)
        if ready is None:
            return
        delay = max(ready - self.sim.now, _MIN_RETRY_DELAY)
        armed = self._retry_event
        if armed is not None:
            # Paced qdiscs report the same ready time on every kick while
            # throttled; re-arming at an identical deadline would only
            # feed the tombstone compactor.
            if armed.time == self.sim.now + delay:
                return
            self.sim.cancel(armed)
            self._retry_event = None
        self._retry_event = self.sim.schedule(delay, self._retry)

    def _retry(self) -> None:
        self._retry_event = None
        self._kick()

    def _cancel_retry(self) -> None:
        if self._retry_event is not None:
            self.sim.cancel(self._retry_event)
            self._retry_event = None

    # -- RX path ----------------------------------------------------------

    def receive(self, seg: Segment) -> None:
        self.bytes_rx += seg.size
        self.segments_rx += 1
        if self.on_receive is not None:
            self.on_receive(seg)

    def settle_rx(self) -> None:
        """Flush deliveries the flow-level fabric port has deferred lazily.

        Mid-run readers of the RX counters (host samplers, invariant
        checks, scrapes) call this first; it matures exactly the
        deliveries packet granularity would have executed by now, so
        sampled series stay byte-identical to packet granularity.
        """
        settle = self._rx_settle
        if settle is not None:
            settle()

    # -- monitoring ---------------------------------------------------------

    def utilization_snapshot(self) -> dict:
        """Cumulative counters for ifstat-style differencing."""
        self.settle_rx()
        busy = self.busy_time
        if self._tx_busy:
            busy += self.sim.now - self._busy_since
        return {
            "bytes_tx": self.bytes_tx,
            "bytes_rx": self.bytes_rx,
            "busy_time": busy,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NIC {self.host_id} backlog={len(self.qdisc)} busy={self._tx_busy}>"


# The per-segment hops, compiled: ``send`` hands a segment to the qdisc
# (reaching ``_egress_drop`` when it refuses), ``_kick`` starts an idle
# serializer and ``_tx_done`` completes one segment — routing it into its
# fabric port, refilling the sender's window through ``on_segment_sent``
# and starting the next.  An empty dequeue from the exact ``PFifo`` type
# ends the busy period (an empty PFifo dequeue means an empty queue);
# other qdiscs arm a retry while backlogged.
NIC.send, NIC._kick, NIC._tx_done = segpath.bind_nic(
    NIC, PFifo, Segment, Message, FlowKey, EventQueue, Simulator, NetworkError
)
