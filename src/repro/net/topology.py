"""Star topology builder: N hosts, one switch, uniform links.

Mirrors the paper's testbed: "21 hosts connected to one Ethernet switch.
All links are 10 Gbps."
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.nic import NIC
from repro.net.packet import Message
from repro.net.switch import Switch
from repro.net.transport import (
    DEFAULT_SEGMENT_BYTES,
    DEFAULT_WINDOW_SEGMENTS,
    Transport,
)
from repro.units import gbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: A delivery tap: called with every fully reassembled message.
DeliveryTap = Callable[[Message], None]


def _chain_deliver(transport: Transport, tap: DeliveryTap) -> None:
    """Append ``tap`` to a transport's ``on_deliver`` chain."""
    prev = transport.on_deliver
    if prev is None:
        transport.on_deliver = tap
    else:
        def chained(msg: Message, _prev=prev, _tap=tap) -> None:
            _prev(msg)
            _tap(msg)

        transport.on_deliver = chained


class StarNetwork:
    """Hosts × (NIC + Transport) wired through one switch."""

    def __init__(
        self,
        sim: "Simulator",
        host_ids: Iterable[str],
        link: Optional[Link] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        window_segments: int = DEFAULT_WINDOW_SEGMENTS,
        window_jitter: float = 0.0,
        switch_buffer_bytes: float | None = None,
        rto: float = 0.2,
    ) -> None:
        """The switch's egress ports run at flow granularity
        (:class:`~repro.net.switch.VirtualOutputPort`): sender NICs admit
        serialized segments straight into their egress port, eliding the
        per-segment ingress/serialization/delivery events while staying
        byte-identical to packet granularity."""
        self.sim = sim
        self.link = link if link is not None else Link(rate=gbps(10))
        self.switch = Switch(
            sim,
            buffer_bytes=switch_buffer_bytes,
            on_drop=self._notify_sender_of_drop,
        )
        self.nics: Dict[str, NIC] = {}
        self.transports: Dict[str, Transport] = {}
        self._segment_bytes = segment_bytes
        self._window_segments = window_segments
        self._window_jitter = window_jitter
        self._rto = rto
        self._delivery_taps: List[DeliveryTap] = []

        for host_id in host_ids:
            self.attach_host(host_id)

    def attach_host(self, host_id: str) -> Transport:
        """Wire a (possibly late) host into the star: NIC, switch port,
        transport.  Delivery taps registered before this call are applied,
        so telemetry installed at build time also sees hosts attached
        afterwards (e.g. on failover respawn)."""
        if host_id in self.nics:
            raise NetworkError(f"duplicate host id {host_id!r}")
        nic = NIC(self.sim, host_id, rate=self.link.rate)
        self.switch.attach_nic(nic, self.link)
        transport = Transport(
            self.sim, nic, segment_bytes=self._segment_bytes,
            window_segments=self._window_segments,
            window_jitter=self._window_jitter, rto=self._rto,
        )
        for tap in self._delivery_taps:
            _chain_deliver(transport, tap)
        self.nics[host_id] = nic
        self.transports[host_id] = transport
        return transport

    def add_delivery_tap(self, tap: DeliveryTap) -> None:
        """Call ``tap(msg)`` for every message any transport delivers —
        including transports created by later :meth:`attach_host` calls."""
        self._delivery_taps.append(tap)
        for transport in self.transports.values():
            _chain_deliver(transport, tap)

    def _notify_sender_of_drop(self, seg) -> None:
        """Route a switch drop back to the sending host's transport (the
        RTO signal a real TCP sender would eventually infer)."""
        self.transports[seg.flow.src_host].on_segment_lost(seg)

    def nic(self, host_id: str) -> NIC:
        try:
            return self.nics[host_id]
        except KeyError:
            raise NetworkError(f"unknown host {host_id!r}") from None

    def transport(self, host_id: str) -> Transport:
        try:
            return self.transports[host_id]
        except KeyError:
            raise NetworkError(f"unknown host {host_id!r}") from None

    @property
    def host_ids(self) -> list[str]:
        return list(self.nics)

    def iter_ports(self):
        """Every fabric egress port (invariant checks, monitoring)."""
        return self.switch.iter_ports()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StarNetwork hosts={len(self.nics)} rate={self.link.rate:.0f}B/s>"
