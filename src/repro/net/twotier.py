"""Two-tier (leaf-spine) topology.

The paper's testbed is a single switch; production clusters are multi-tier
with an oversubscribed core.  This extension asks whether end-host
scheduling still suffices when *cross-rack* bandwidth, not the host NIC,
can be the bottleneck (ablation A14).

Model: ``n_leaves`` leaf switches, hosts distributed round-robin; one
spine.  Host links run at the host rate; each leaf's uplink to the spine
runs at ``host_rate * hosts_per_leaf / oversubscription`` in each
direction.  Forwarding is the obvious two-tier route: host -> leaf ->
(same-leaf ? host : spine -> leaf -> host), every hop an output-queued
FIFO port (finite buffers supported, like the single switch).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.nic import NIC
from repro.net.packet import Segment
from repro.net.switch import OutputPort, VirtualOutputPort
from repro.net.topology import DeliveryTap, _chain_deliver
from repro.net.transport import (
    DEFAULT_SEGMENT_BYTES,
    DEFAULT_WINDOW_SEGMENTS,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class LeafSwitch:
    """A leaf: one port per local host, plus an uplink to the spine."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        host_link: Link,
        uplink: Link,
        buffer_bytes: Optional[float],
        on_drop: Optional[Callable[[Segment], None]],
    ) -> None:
        self.sim = sim
        self.name = name
        self.host_link = host_link
        self.uplink_link = uplink
        self.buffer_bytes = buffer_bytes
        self.on_drop = on_drop
        self._host_ports: Dict[str, OutputPort] = {}
        self.uplink: Optional[OutputPort] = None  # wired by the topology
        self.local_hosts: set[str] = set()

    def attach_host(self, nic: NIC) -> VirtualOutputPort:
        """Wire a local host's NIC to this leaf, both directions.

        The NIC's segments reach :meth:`ingress` after a real link
        latency event; the final-hop port toward the NIC delivers into
        its RX counters inline.
        """
        host_id = nic.host_id
        port = VirtualOutputPort(
            self.sim, host_id, self.host_link, nic.receive,
            buffer_bytes=self.buffer_bytes, on_drop=self.on_drop,
        )
        nic.attach_link(self.ingress, self.host_link.latency)
        nic._rx_settle = port.settle
        port._rx_nic = nic
        self._host_ports[host_id] = port
        self.local_hosts.add(host_id)
        return port

    def ingress(self, seg: Segment) -> None:
        """From a local host or from the spine."""
        dst = seg.flow.dst_host
        if dst in self.local_hosts:
            self._host_ports[dst].enqueue(seg)
        else:
            if self.uplink is None:
                raise NetworkError(f"{self.name}: no uplink for {dst!r}")
            self.uplink.enqueue(seg)

    @property
    def drops(self) -> int:
        ports = list(self._host_ports.values())
        if self.uplink is not None:
            ports.append(self.uplink)
        return sum(p.drops for p in ports)


class SpineSwitch:
    """The spine: one downlink port per leaf."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._downlinks: Dict[str, OutputPort] = {}  # leaf name -> port
        self._leaf_of_host: Dict[str, str] = {}

    def attach_leaf(
        self,
        leaf_name: str,
        link: Link,
        deliver: Callable[[Segment], None],
        hosts: List[str],
        buffer_bytes: Optional[float],
        on_drop: Optional[Callable[[Segment], None]],
    ) -> None:
        self._downlinks[leaf_name] = OutputPort(
            self.sim, leaf_name, link, deliver,
            buffer_bytes=buffer_bytes, on_drop=on_drop,
        )
        for h in hosts:
            self._leaf_of_host[h] = leaf_name

    def ingress(self, seg: Segment) -> None:
        leaf = self._leaf_of_host.get(seg.flow.dst_host)
        if leaf is None:
            raise NetworkError(f"spine: unknown host {seg.flow.dst_host!r}")
        self._downlinks[leaf].enqueue(seg)


class TwoTierNetwork:
    """Hosts x (NIC + Transport) over a leaf-spine fabric."""

    def __init__(
        self,
        sim: "Simulator",
        host_ids: List[str],
        n_leaves: int = 3,
        link: Optional[Link] = None,
        oversubscription: float = 1.0,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        window_segments: int = DEFAULT_WINDOW_SEGMENTS,
        window_jitter: float = 0.0,
        buffer_bytes: Optional[float] = None,
        rto: float = 0.2,
    ) -> None:
        """The *final-hop* (leaf host) ports run at flow granularity
        (:class:`~repro.net.switch.VirtualOutputPort`): admission happens
        inside the segment's real arrival event (the zero-lookahead
        ``enqueue`` path), so it is exact regardless of how many hops and
        latencies the segment crossed, and the serialization + delivery
        events of the last hop are elided.  Middle hops (leaf uplinks,
        spine downlinks) stay at packet granularity: their deliveries
        feed the *next* port's admission order, which a lazily-settling
        port cannot guarantee."""
        if n_leaves < 1:
            raise NetworkError("need >= 1 leaf")
        if len(host_ids) < n_leaves:
            raise NetworkError("fewer hosts than leaves")
        if oversubscription < 1.0:
            raise NetworkError("oversubscription must be >= 1")
        self.sim = sim
        self.link = link if link is not None else Link(rate=1.25e9)
        self.nics: Dict[str, NIC] = {}
        self.transports: Dict[str, Transport] = {}
        self._delivery_taps: List[DeliveryTap] = []
        self.leaves: List[LeafSwitch] = []
        self.spine = SpineSwitch(sim)
        self.leaf_of_host: Dict[str, str] = {}

        groups: List[List[str]] = [[] for _ in range(n_leaves)]
        for i, hid in enumerate(host_ids):
            groups[i % n_leaves].append(hid)

        def drop_to_sender(seg: Segment) -> None:
            self.transports[seg.flow.src_host].on_segment_lost(seg)

        for li, hosts in enumerate(groups):
            uplink_rate = self.link.rate * len(hosts) / oversubscription
            leaf = LeafSwitch(
                sim, f"leaf{li}", self.link,
                Link(rate=uplink_rate, latency=self.link.latency),
                buffer_bytes, drop_to_sender,
            )
            self.leaves.append(leaf)
            for hid in hosts:
                if hid in self.nics:
                    raise NetworkError(f"duplicate host id {hid!r}")
                nic = NIC(sim, hid, rate=self.link.rate)
                leaf.attach_host(nic)
                self.nics[hid] = nic
                self.transports[hid] = Transport(
                    sim, nic, segment_bytes=segment_bytes,
                    window_segments=window_segments,
                    window_jitter=window_jitter, rto=rto,
                )
                self.leaf_of_host[hid] = leaf.name
            # leaf -> spine uplink; spine -> leaf downlink
            leaf.uplink = OutputPort(
                sim, f"{leaf.name}->spine", leaf.uplink_link,
                self.spine.ingress, buffer_bytes=buffer_bytes,
                on_drop=drop_to_sender,
            )
            self.spine.attach_leaf(
                leaf.name, leaf.uplink_link, leaf.ingress, hosts,
                buffer_bytes, drop_to_sender,
            )

    def add_delivery_tap(self, tap: DeliveryTap) -> None:
        """Call ``tap(msg)`` for every message any transport delivers
        (same contract as :meth:`StarNetwork.add_delivery_tap`)."""
        self._delivery_taps.append(tap)
        for transport in self.transports.values():
            _chain_deliver(transport, tap)

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
    def host_ids(self) -> List[str]:
        return list(self.nics)

    def iter_ports(self):
        """Every fabric egress port across both tiers (invariant checks)."""
        for leaf in self.leaves:
            yield from leaf._host_ports.values()
            if leaf.uplink is not None:
                yield leaf.uplink
        yield from self.spine._downlinks.values()
