"""An output-queued Ethernet switch.

Each attached host gets an egress port with a FIFO queue draining at the
port's link rate.  The switch is deliberately *not* priority-aware: the
paper's whole point is that end-host scheduling alone suffices, so the
fabric stays vanilla.

Two port granularities share one behaviour, and the fabric's structure
— never an option — picks between them:

* :class:`VirtualOutputPort` — flow granularity, used for every port
  that delivers to a host (star egress ports, two-tier leaf->host
  ports).  Because every link into a port has the same propagation
  latency, segments arrive in the order their senders finished
  serializing them, so the whole FIFO service schedule — queueing, tail
  drops, departure times — is computable *at admission time*.  The port
  advances bytes analytically and schedules real events only where the
  outside world must observe something: one completion event per
  message (which lazily delivers the segments that matured before it)
  and one notification event per tail drop (so RTO timers and window
  halving fire at the exact packet-granularity times).  The elided
  events are credited back to ``sim._steps``, keeping ``sim_events`` —
  and therefore the pinned result content hashes — byte-identical to
  packet granularity.
* :class:`OutputPort` — packet granularity: every segment costs an
  ingress event, a serialization-done event and a delivery event.  Kept
  for the two-tier middle hops (leaf uplinks, spine downlinks), whose
  deliveries feed the *next* port's admission order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net._native import segpath
from repro.net.link import Link
from repro.net.packet import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC
    from repro.sim.kernel import Simulator


class OutputPort:
    """One egress port: FIFO queue + serializer at link rate.

    ``buffer_bytes`` bounds the queued payload (None = infinite).  A full
    buffer tail-drops — the incast behaviour of a shallow-buffered
    Ethernet switch, which matters for the PS's gradient fan-in and the
    workers' model-update fan-in.
    """

    __slots__ = (
        "sim",
        "host_id",
        "link",
        "deliver",
        "buffer_bytes",
        "on_drop",
        "_queue",
        "_queued_bytes",
        "_busy",
        "bytes_tx",
        "busy_time",
        "_busy_since",
        "max_backlog",
        "drops",
        "dropped_bytes",
    )

    def __init__(
        self,
        sim: "Simulator",
        host_id: str,
        link: Link,
        deliver: Callable[[Segment], None],
        buffer_bytes: Optional[float] = None,
        on_drop: Optional[Callable[[Segment], None]] = None,
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.link = link
        self.deliver = deliver
        self.buffer_bytes = buffer_bytes
        self.on_drop = on_drop
        self._queue: Deque[Segment] = deque()
        self._queued_bytes = 0
        self._busy = False
        self.bytes_tx = 0
        self.busy_time = 0.0
        self._busy_since = 0.0
        self.max_backlog = 0
        self.drops = 0
        self.dropped_bytes = 0

    def _record_drop(self, seg: Segment) -> None:
        """Count a tail drop and notify the sender inline."""
        self.drops += 1
        self.dropped_bytes += seg.size
        if self.on_drop is not None:
            self.on_drop(seg)

    def enqueue(self, seg: Segment) -> None:
        if (
            self.buffer_bytes is not None
            and self._queued_bytes + seg.size > self.buffer_bytes
        ):
            self._record_drop(seg)
            return
        self._queue.append(seg)
        self._queued_bytes += seg.size
        if len(self._queue) > self.max_backlog:
            self.max_backlog = len(self._queue)
        self._kick()

    def _kick(self) -> None:
        if self._busy or not self._queue:
            return
        seg = self._queue.popleft()
        self._queued_bytes -= seg.size
        self._busy = True
        sim = self.sim
        self._busy_since = sim.now
        sim.schedule(seg.size / self.link.rate, self._tx_done, (seg,))

    def _tx_done(self, seg: Segment) -> None:
        sim = self.sim
        self._busy = False
        self.busy_time += sim.now - self._busy_since
        self.bytes_tx += seg.size
        sim.schedule(self.link.latency, self.deliver, (seg,))
        self._kick()

    @property
    def backlog(self) -> int:
        return len(self._queue)


class VirtualOutputPort(OutputPort):
    """Flow-granularity egress port: analytic FIFO service at admission.

    Exactness argument (flow granularity must be *exact*, not approximate):
    all links into a port share one propagation latency ``L``, so the
    order in which senders finish serializing equals the order segments
    reach the port — admissions are made in arrival order, and FIFO
    service is a pure function of that order.  ``admit`` therefore
    computes the packet-granularity service start/end, tail-drop decision
    and delivery time with the *same floating-point expressions* the
    event-driven port evaluates, and schedules only:

    * a drop-notification event at the segment's arrival time (so the
      sender's window halving and RTO timer keep their exact packet
      timings), and
    * a completion event at the delivery time of a message's final byte,
      which settles (actually delivers) every earlier segment still
      pending at this port.  Settling late is safe because non-final
      segment delivery is time-blind — it only moves bytes into receive
      counters — while every time-visible effect (message completion,
      ``delivered_at``, listener callbacks) happens in the completion
      event at its exact packet-granularity time.  Readers that sample
      receive counters mid-run (host samplers, invariant checks) call
      :meth:`settle` first, which matures exactly the deliveries packet
      granularity would have executed by then.

    The events elided per segment are credited back to ``sim._steps`` so
    ``sim_events`` (part of the pinned result content hash) is identical
    to packet granularity.

    One inherited packet-granularity behaviour needs care at ties: a
    queued segment leaves the drop-accounting queue when its service
    *starts*.  When a service start coincides exactly with a new arrival,
    packet granularity orders the two events by schedule sequence: the
    predecessor's serialization-done event was scheduled at its own
    service start, the arrival's ingress event at ``arrival - L`` — so
    the service counts as started iff it was scheduled no later
    (``prev_start <= arrival - L``), or the segment started at its own
    arrival into an idle port (its ingress event ran first).
    """

    __slots__ = (
        "_free_at",
        "_last_start",
        "_wait",
        "_pending",
        "_acc",
        "_rate",
        "_lat",
        "_rx_nic",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._free_at = 0.0
        self._last_start = float("-inf")
        #: drop-accounting queue: (start, size, idle_start, prev_start)
        self._wait: Deque[tuple] = deque()
        #: undelivered segments: (delivery_time, seg, size, service_time)
        self._pending: Deque[tuple] = deque()
        #: accepted bytes per in-flight message (completion detection)
        self._acc: Dict[int, int] = {}
        # Link is frozen; plain float slots beat the two-hop attribute
        # chase on every admission.
        self._rate = self.link.rate
        self._lat = self.link.latency
        #: when the topology wires the destination NIC here, ``settle``
        #: updates its RX counters inline instead of going through
        #: ``NIC.receive`` (one call frame per delivered segment)
        self._rx_nic = None

    # ``enqueue``, ``admit`` and ``settle`` are compiled (``_segpath.c``,
    # bound below ``Switch``).  ``admit`` purges the wait entries whose
    # service has started by the arrival; on a full buffer it counts the
    # drop and schedules ``on_drop`` at the arrival (an ingress that ran
    # as a real event drops through ``_record_drop``), and otherwise
    # computes the service start and end, the delivery time and the
    # elided-event credit with the same float expressions as the
    # event-driven serializer.  ``settle`` delivers the matured pending
    # segments.

    @property
    def backlog(self) -> int:
        """Segments queued but not yet in service at the current time."""
        now = self.sim.now
        lat = self.link.latency
        n = 0
        for start, _size, idle, prev_start in self._wait:
            if start > now or (
                start == now and not idle and prev_start > now - lat
            ):
                n += 1
        return n


class Switch:
    """Routes segments to the egress port of their destination host."""

    __slots__ = ("sim", "name", "buffer_bytes", "on_drop", "_ports",
                 "segments_forwarded")

    def __init__(
        self,
        sim: "Simulator",
        name: str = "sw0",
        buffer_bytes: Optional[float] = None,
        on_drop: Optional[Callable[[Segment], None]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.buffer_bytes = buffer_bytes
        self.on_drop = on_drop
        self._ports: Dict[str, OutputPort] = {}
        self.segments_forwarded = 0

    def attach(
        self,
        host_id: str,
        link: Link,
        deliver: Callable[[Segment], None],
    ) -> VirtualOutputPort:
        """Create the egress port toward ``host_id``."""
        if host_id in self._ports:
            raise NetworkError(f"host {host_id} already attached to {self.name}")
        port = VirtualOutputPort(
            self.sim, host_id, link, deliver,
            buffer_bytes=self.buffer_bytes,
            on_drop=self.on_drop,
        )
        self._ports[host_id] = port
        return port

    def attach_nic(self, nic: "NIC", link: Link) -> VirtualOutputPort:
        """Wire a host NIC to the switch over ``link``, both directions.

        The NIC admits each serialized segment straight into its
        destination's port, one link latency ahead (``NIC._tx_done``
        inlines the routing); the port toward the NIC delivers into its
        RX counters inline.
        """
        port = self.attach(nic.host_id, link, nic.receive)
        nic.attach_link(self.ingress, link.latency)
        nic._fab_switch = self
        nic._fab_ports = self._ports
        nic._rx_settle = port.settle
        port._rx_nic = nic
        return port

    @property
    def total_drops(self) -> int:
        return sum(p.drops for p in self._ports.values())

    def iter_ports(self):
        """Every egress port (invariant checks, monitoring)."""
        return iter(self._ports.values())

    def ingress(self, seg: Segment) -> None:
        """A segment arrived from some host; forward it."""
        port = self._ports.get(seg.flow.dst_host)
        if port is None:
            raise NetworkError(
                f"switch {self.name}: no port for destination {seg.flow.dst_host!r}"
            )
        self.segments_forwarded += 1
        port.enqueue(seg)

    def port(self, host_id: str) -> Optional[OutputPort]:
        return self._ports.get(host_id)


VirtualOutputPort.admit, VirtualOutputPort.enqueue, VirtualOutputPort.settle = (
    segpath.bind_port(VirtualOutputPort, Switch)
)
