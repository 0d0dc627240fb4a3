"""The Cluster facade: hosts wired to a star network.

Combines the compute substrate (:class:`Host` with a processor-sharing
CPU) and the network substrate (:class:`StarNetwork`) into the object the
DL application layer and the experiment harness build on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cluster.host import DEFAULT_CORES, Host
from repro.errors import PlacementError
from repro.net.link import Link
from repro.net.topology import StarNetwork
from repro.net.transport import DEFAULT_SEGMENT_BYTES, DEFAULT_WINDOW_SEGMENTS
from repro.units import gbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


def host_id(index: int) -> str:
    """The canonical id of the ``index``-th host (``"h00"``, ``"h01"``, ...).

    Single source of truth for the host-id format; everything that needs
    to name hosts without a :class:`Cluster` in hand goes through here.
    """
    if index < 0:
        raise PlacementError(f"host index must be >= 0, got {index}")
    return f"h{index:02d}"


def default_host_ids(n_hosts: int) -> List[str]:
    """Canonical ids of an ``n_hosts``-host cluster, in scheduler order."""
    return [host_id(i) for i in range(n_hosts)]


class Cluster:
    """N hosts, one switch, uniform links — the paper's testbed."""

    def __init__(
        self,
        sim: "Simulator",
        n_hosts: int = 21,
        cores_per_host: int = DEFAULT_CORES,
        link: Optional[Link] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        window_segments: int = DEFAULT_WINDOW_SEGMENTS,
        window_jitter: float = 0.0,
        switch_buffer_bytes: Optional[float] = None,
        rto: float = 0.2,
    ) -> None:
        if n_hosts < 2:
            raise PlacementError(f"cluster needs >= 2 hosts, got {n_hosts}")
        self.sim = sim
        host_ids = default_host_ids(n_hosts)
        self.network = StarNetwork(
            sim,
            host_ids,
            link=link if link is not None else Link(rate=gbps(10)),
            segment_bytes=segment_bytes,
            window_segments=window_segments,
            window_jitter=window_jitter,
            switch_buffer_bytes=switch_buffer_bytes,
            rto=rto,
        )
        self.hosts: Dict[str, Host] = {}
        for hid in host_ids:
            self.hosts[hid] = Host(
                sim,
                hid,
                cores=cores_per_host,
                nic=self.network.nic(hid),
                transport=self.network.transport(hid),
            )

    @property
    def host_ids(self) -> List[str]:
        return list(self.hosts)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def host(self, host_id: str) -> Host:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise PlacementError(f"unknown host {host_id!r}") from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster hosts={len(self.hosts)}>"
