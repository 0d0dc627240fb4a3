"""Wires one ring all-reduce job onto the cluster.

:class:`AllReduceApplication` is the all-reduce twin of
:class:`~repro.dl.application.DLApplication`: both are an
:class:`~repro.dl.application.Application`, with the same
:class:`JobSpec` surface (``architecture="allreduce"``, ``n_workers`` =
ring size), the same :class:`~repro.dl.metrics.JobMetrics` /
barrier-wait accounting and the same lifecycle, so TensorLights, the
experiment runtime, and every figure treat the two architectures
uniformly.

The key difference is *where* the job's traffic concentrates: a PS job's
update fan-out leaves one (PS) host, while an all-reduce job sends from
**every** member host.  Each member therefore reserves a contiguous port
range on its host (one port per chunk channel) and TensorLights bands
that range on each host — the port-range flow classification scheme.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.collectives.ring import RingAllReduceTask, RingEndpoint
from repro.dl.application import Application
from repro.dl.job import JobSpec
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


class AllReduceApplication(Application):
    """A deployed ring all-reduce training job.

    Construction allocates one port range per member and registers
    listeners; :meth:`launch` spawns the member processes (honoring
    ``spec.arrival_time``).  ``member_hosts`` fixes both placement and
    ring order (ring order = placement order): member ``i`` sends to
    member ``(i+1) % N``.

    Args:
        spec: the job (``architecture="allreduce"``; ``n_workers`` is the
            ring size N).
        cluster: where to deploy.
        member_hosts: one distinct host per ring member, in ring order.
        channels: chunk channels per member — the width of each member's
            source-port range (chunks stripe round-robin over channels).
    """

    def __init__(
        self,
        spec: JobSpec,
        cluster: "Cluster",
        member_hosts: List[str],
        channels: int = 1,
    ) -> None:
        if spec.architecture != "allreduce":
            raise PlacementError(
                f"{spec.job_id}: AllReduceApplication needs "
                f"architecture='allreduce', got {spec.architecture!r}"
            )
        if len(member_hosts) != spec.n_workers:
            raise PlacementError(
                f"{spec.job_id}: ring size {spec.n_workers} but "
                f"{len(member_hosts)} member hosts"
            )
        if len(set(member_hosts)) != len(member_hosts):
            raise PlacementError(
                f"{spec.job_id}: ring members must live on distinct hosts "
                f"(got {member_hosts})"
            )
        if channels < 1:
            raise PlacementError(f"{spec.job_id}: channels must be >= 1")
        super().__init__(spec, cluster)
        self.channels = channels

        self.member_endpoints: List[RingEndpoint] = []
        for hid in member_hosts:
            machine = cluster.host(hid)
            lo, hi = machine.allocate_port_range(channels)
            self.member_endpoints.append(RingEndpoint(machine, lo, hi))

        self.members = [
            RingAllReduceTask(spec, i, ep, self.member_endpoints, self.metrics)
            for i, ep in enumerate(self.member_endpoints)
        ]
        self._deploy(self.members, finishers=self.members)

    def classification_ranges(self) -> Dict[str, List[Tuple[int, int]]]:
        """One inclusive ``(lo, hi)`` source-port range per member host."""
        return {
            ep.host_id: [(ep.port_lo, ep.port_hi)]
            for ep in self.member_endpoints
        }

    @property
    def member_hosts(self) -> List[str]:
        """Member host ids in ring order."""
        return [ep.host_id for ep in self.member_endpoints]
