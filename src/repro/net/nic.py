"""The host NIC: serializes outbound segments through a pluggable qdisc.

This is where TensorLights intervenes.  The NIC owns exactly one egress
qdisc (FIFO unless `tc` replaced it); it drains the qdisc at link rate and
notifies the transport when each segment has been serialized (the ACK-clock
hook that keeps per-flow windows full).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.packet import Segment
from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.fifo import PFifo

if TYPE_CHECKING:  # pragma: no cover
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

        Divergence from Linux (documented in DESIGN.md): the backlog of the
        old qdisc is migrated into the new one instead of dropped, so a
        reconfiguration mid-experiment never silently loses traffic.
        """
        now = self.sim.now
        pending = self.qdisc.drain_all(now)
        self.qdisc = qdisc
        self.qdisc.on_drop = self._handle_qdisc_drop
        qdisc.set_line_rate(self.rate)
        for seg in pending:
            if not qdisc.enqueue(seg, now):
                raise NetworkError("new qdisc dropped migrated backlog")
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

    def send(self, seg: Segment) -> None:
        """Hand a segment to the egress qdisc.

        Raises :class:`NetworkError` on drop — queue limits are sized so
        drops never happen in a correctly configured experiment, and a
        loud failure beats a transport that waits forever.  Robustness
        experiments that *want* egress loss (netem) set
        :attr:`loss_tolerant`, which reports the drop to the transport
        (window-slot release + RTO retransmit) instead of raising.
        """
        if not self.qdisc.enqueue(seg, self.sim.now):
            if self.loss_tolerant and self.on_segment_dropped is not None:
                self.egress_drops += 1
                self.on_segment_dropped(seg)
                return
            raise NetworkError(
                f"qdisc on {self.host_id} dropped {seg!r} "
                f"(backlog={len(self.qdisc)})"
            )
        # While serializing, the in-flight segment's completion handler
        # starts the next dequeue itself — the kick would be a no-op.
        if not self._tx_busy:
            self._kick()

    def _kick(self) -> None:
        if self._tx_busy:
            return
        sim = self.sim
        now = sim.now
        seg = self.qdisc.dequeue(now)
        if seg is None:
            if len(self.qdisc) > 0:
                self._arm_retry()
            return
        if self._retry_event is not None:
            sim.cancel(self._retry_event)
            self._retry_event = None
        self._tx_busy = True
        self._busy_since = now
        # sim.schedule_fire inlined, as in ``_tx_done``.
        events = sim.events
        seq = events._seq
        events._seq = seq + 1
        heappush(
            events._heap,
            (now + seg.size / self.rate, 0, seq, None, self._tx_done, (seg,)),
        )
        events._live += 1

    def _tx_done(self, seg: Segment) -> None:
        sim = self.sim
        now = sim.now
        self.busy_time += now - self._busy_since
        self.bytes_tx += seg.size
        self.segments_tx += 1
        ports = self._fab_ports
        if ports is not None:
            # Fast path: route into the egress port now, stamped with the
            # arrival time the elided ingress event would have carried.
            try:
                port = ports[seg.flow.dst_host]
            except KeyError:
                raise NetworkError(
                    f"no fabric port for destination {seg.flow.dst_host!r}"
                ) from None
            self._fab_switch.segments_forwarded += 1
            port.admit(seg, now + self._link_latency)
        else:
            if self._deliver is None:
                raise NetworkError(f"NIC {self.host_id} has no link attached")
            sim.schedule(self._link_latency, self._deliver, (seg,))
        on_sent = self.on_segment_sent
        if on_sent is not None:
            # Window refill: sends land in the qdisc but skip the kick
            # (``_tx_busy`` is still True) — the dequeue below starts the
            # next serialization exactly where the kick would have.
            on_sent(seg)
        nxt = self.qdisc.dequeue(now)
        if nxt is None:
            self._tx_busy = False
            if len(self.qdisc) > 0:
                self._arm_retry()
            return
        if self._retry_event is not None:
            sim.cancel(self._retry_event)
            self._retry_event = None
        self._busy_since = now
        # sim.schedule_fire inlined: this push runs once per serialized
        # segment and the call frame was measurable.  now + size/rate is
        # finite (both operands validated positive at configuration).
        events = sim.events
        seq = events._seq
        events._seq = seq + 1
        heappush(
            events._heap,
            (now + nxt.size / self.rate, 0, seq, None, self._tx_done, (nxt,)),
        )
        events._live += 1

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

    @property
    def tx_backlog(self) -> int:
        return len(self.qdisc)

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
