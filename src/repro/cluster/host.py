"""A cluster host: CPU + NIC + transport + resident tasks.

Matches the paper's testbed host: "128 GB RAM and six 3.5 GHz dual
hyper-threaded CPU cores" (we model 12 schedulable hardware threads) with
a 10 Gbps NIC.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.cluster.cpu import ProcessorSharingCPU
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC
    from repro.net.transport import Transport
    from repro.sim.kernel import Simulator

#: Hardware threads per testbed host (6 dual-hyper-threaded cores).
DEFAULT_CORES = 12


class Host:
    """One machine in the cluster."""

    def __init__(
        self,
        sim: "Simulator",
        host_id: str,
        cores: int = DEFAULT_CORES,
        nic: Optional["NIC"] = None,
        transport: Optional["Transport"] = None,
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.cpu = ProcessorSharingCPU(sim, cores=cores, name=f"cpu@{host_id}")
        self.nic = nic
        self.transport = transport
        self._next_port = 2222  # TensorFlow's conventional first task port
        self.tasks: List[object] = []

    def allocate_port(self) -> int:
        """Hand out a unique local port (PS/worker listening ports)."""
        port = self._next_port
        self._next_port += 1
        return port

    def allocate_port_range(self, width: int) -> tuple[int, int]:
        """Reserve ``width`` contiguous ports; returns inclusive ``(lo, hi)``.

        Ring all-reduce members listen on a *range* (one port per chunk
        channel) so TensorLights can classify all of a job's egress flows
        on this host with a single range filter — the NCCL-style
        port-range convention (see docs/collectives.md).
        """
        if width < 1:
            raise PlacementError(
                f"{self.host_id}: port range width must be >= 1, got {width}"
            )
        lo = self._next_port
        self._next_port += width
        return lo, lo + width - 1

    def add_task(self, task: object) -> None:
        self.tasks.append(task)

    def remove_task(self, task: object) -> None:
        try:
            self.tasks.remove(task)
        except ValueError:
            raise PlacementError(
                f"task {task!r} is not resident on host {self.host_id}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.host_id} tasks={len(self.tasks)}>"
