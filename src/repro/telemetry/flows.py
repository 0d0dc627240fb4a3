"""Flow/message completion-time telemetry.

Hooks every transport's delivery path and records per-message completion
records (size, kind, job, latency).  Used to analyze straggler tails
directly at the network layer — e.g. "the p99 model-update FCT under FIFO
vs TensorLights" — independent of the application-level barrier metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.net.packet import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import StarNetwork


@dataclass(frozen=True)
class FlowRecord:
    """One completed message."""

    kind: str
    job: Optional[str]
    size: int
    created_at: float
    delivered_at: float

    @property
    def fct(self) -> float:
        return self.delivered_at - self.created_at


class FlowCollector:
    """Collects a :class:`FlowRecord` per delivered message.

    Registers a delivery tap on the network
    (:meth:`~repro.net.topology.StarNetwork.add_delivery_tap`)::

        collector = FlowCollector.install(network)
        ... deploy apps ...
        sim.run()
        collector.percentile("model_update", 99)
    """

    def __init__(self) -> None:
        self.records: List[FlowRecord] = []

    # -- installation -----------------------------------------------------

    @classmethod
    def install(cls, network: "StarNetwork") -> "FlowCollector":
        collector = cls()
        # Registering through the network covers transports created
        # *after* install() too (e.g. hosts attached on failover respawn).
        network.add_delivery_tap(collector.record)
        return collector

    def record(self, msg: Message) -> None:
        self.records.append(
            FlowRecord(
                kind=msg.kind,
                job=msg.meta.get("job"),
                size=msg.size,
                created_at=msg.created_at,
                delivered_at=msg.delivered_at,
            )
        )

    # -- queries ------------------------------------------------------------

    def fcts(self, kind: Optional[str] = None, job: Optional[str] = None) -> np.ndarray:
        """Flow completion times, optionally filtered by kind and job."""
        vals = [
            r.fct
            for r in self.records
            if (kind is None or r.kind == kind)
            and (job is None or r.job == job)
        ]
        return np.asarray(vals, dtype=float)

    def percentile(self, kind: Optional[str], p: float) -> float:
        arr = self.fcts(kind)
        if arr.size == 0:
            raise ConfigError(f"no records for kind={kind!r}")
        return float(np.percentile(arr, p))

    def tail_ratio(self, kind: Optional[str] = None, p: float = 99.0) -> float:
        """p-th percentile / median — the straggler tail heaviness."""
        arr = self.fcts(kind)
        if arr.size == 0:
            raise ConfigError(f"no records for kind={kind!r}")
        med = float(np.median(arr))
        if med == 0:
            raise ConfigError("zero median FCT")
        return float(np.percentile(arr, p)) / med

    def __len__(self) -> int:
        return len(self.records)
