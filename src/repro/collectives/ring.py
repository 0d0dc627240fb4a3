"""Chunked ring all-reduce member tasks.

The algorithm (Baidu-ring / NCCL style, as studied by Yu et al., "On
Scheduling Ring-All-Reduce Learning Jobs in Multi-Tenant GPU Clusters
with Communication Contention"): the N members of a job form a ring in
placement order; the model update is split into N chunks of
``update_bytes / N`` wire bytes each.  One iteration runs

* N−1 **reduce-scatter** steps: each member sends one chunk to its ring
  successor and receives one from its predecessor, folding the received
  chunk into its local partial sum;
* N−1 **all-gather** steps: the fully-reduced chunks circulate once more
  so every member ends with the whole update.

Every step is synchronized by its data dependency — the chunk a member
sends at step ``s`` is the one it received at step ``s−1`` — so the ring
is self-clocking: 2·(N−1) :class:`~repro.net.packet.Message` sends per
member per iteration, each waiting on the previous step's receive.  Per
iteration every member's egress link therefore carries exactly
``2·(N−1)/N · update_bytes`` — the quantity the acceptance test checks.

The *barrier wait* is accounted exactly like the PS architecture's (from
handing the first chunk to the transport after local compute, to the last
all-gather chunk fully received), so barrier-wait figures and fairness
analyses work unchanged on all-reduce jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.dl.job import JobSpec
from repro.dl.metrics import JobMetrics
from repro.net.addressing import FlowKey
from repro.net.packet import Message
from repro.sim.primitives import Mailbox, Signal
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host

#: Message kind tag for ring all-reduce chunk transfers.
RING_CHUNK = "ring_chunk"


@dataclass
class RingEndpoint:
    """Where one ring member lives: host + its contiguous listening ports.

    The member listens on every port in ``[port_lo, port_hi]`` (one per
    chunk channel) and uses the same ports as *source* ports for its
    egress chunks, so a single ``sport`` range filter classifies all of
    the job's traffic leaving this host.
    """

    host: "Host"
    port_lo: int
    port_hi: int

    @property
    def host_id(self) -> str:
        """The member's host id."""
        return self.host.host_id

    @property
    def ports(self) -> List[int]:
        """All ports of the range, lowest first (one per channel)."""
        return list(range(self.port_lo, self.port_hi + 1))

    @property
    def n_channels(self) -> int:
        """Width of the port range."""
        return self.port_hi - self.port_lo + 1


class RingAllReduceTask:
    """One ring member: compute, then 2·(N−1) chunk exchanges per iteration.

    Chunks are striped round-robin over the member's channels (distinct
    flows), so a reorder buffer keyed by ``(iteration, step)`` absorbs
    cross-channel and cross-iteration arrival skew.
    """

    def __init__(
        self,
        spec: JobSpec,
        member_index: int,
        endpoint: RingEndpoint,
        ring: List[RingEndpoint],
        metrics: JobMetrics,
    ) -> None:
        self.spec = spec
        self.member_index = member_index
        self.name = f"{spec.job_id}/m{member_index:02d}"
        self.endpoint = endpoint
        self.ring = list(ring)
        self.successor = ring[(member_index + 1) % len(ring)]
        self.metrics = metrics
        self.inbox = Mailbox(endpoint.host.sim, name=self.name)
        for port in endpoint.ports:
            endpoint.host.transport.listen(port, self.inbox.put)
        self.done = Signal()
        self.local_step = 0
        #: egress accounting (the acceptance test's per-member-link volume)
        self.chunks_sent = 0
        self.bytes_sent = 0
        self._received: Dict[Tuple[int, int], Message] = {}
        # Endpoints, successor and port ranges are fixed for the run, so
        # every chunk's flow and size are resolved once, here: chunk
        # ``step`` travels on channel ``step % n_channels``.
        successor = self.successor
        self._flows: List[FlowKey] = [
            FlowKey(
                endpoint.host_id, port,
                successor.host_id,
                successor.ports[channel % successor.n_channels],
            )
            for channel, port in enumerate(endpoint.ports)
        ]
        self._chunk_bytes = spec.ring_chunk_bytes

    @property
    def n_members(self) -> int:
        """Ring size N."""
        return len(self.ring)

    @property
    def steps_per_iteration(self) -> int:
        """2·(N−1) chunk exchanges per iteration."""
        return 2 * (self.n_members - 1)

    def _chunk_flow(self, step: int) -> FlowKey:
        """The flow chunk ``step`` travels on (striped over channels)."""
        return self._flows[step % len(self._flows)]

    def run(self, delay: float = 0.0):
        """The member process (a simulation generator), ``delay`` late."""
        if delay > 0:
            yield Timeout(delay)
        host = self.endpoint.host
        sim = host.sim
        cpu = host.cpu
        send = host.transport.send_message
        get = self.inbox.get
        received = self._received
        flows = self._flows
        n_flows = len(flows)
        chunk_bytes = self._chunk_bytes
        spec = self.spec
        if self.member_index == 0:
            if self.metrics.start_time < 0 or sim.now < self.metrics.start_time:
                self.metrics.start_time = sim.now
        steps = self.steps_per_iteration
        for iteration in range(spec.n_iterations):
            # Local compute on this member's batch.
            jitter = sim.rng.lognormal_factor(
                f"compute/{self.name}", spec.compute_jitter_sigma
            )
            yield cpu.run(spec.compute_demand_per_step * jitter)
            self.local_step += 1
            self.metrics.local_steps[self.name] = self.local_step
            # Communication phase = the all-reduce "barrier": entry when
            # the first chunk is handed to the transport, exit when the
            # last all-gather chunk has fully arrived.  Step ``s`` sends
            # chunk ``s`` (the one received at ``s - 1``), then blocks
            # until the predecessor's chunk ``s`` lands.
            barrier_entered_at = sim.now
            for step in range(steps):
                chunk = Message(
                    flow=flows[step % n_flows],
                    size=chunk_bytes,
                    kind=RING_CHUNK,
                    meta={"job": spec.job_id, "member": self.member_index,
                          "iteration": iteration, "step": step},
                )
                self.chunks_sent += 1
                self.bytes_sent += chunk_bytes
                send(chunk)
                key = (iteration, step)
                while key not in received:
                    msg = yield get()
                    assert msg.kind == RING_CHUNK, f"{self.name} got {msg.kind}"
                    meta = msg.meta
                    received[(meta["iteration"], meta["step"])] = msg
                del received[key]
            self.metrics.barriers.record(iteration, sim.now - barrier_entered_at)
            if self.member_index == 0:
                self.metrics.iterations_done = iteration + 1
        if sim.now > self.metrics.end_time:
            self.metrics.end_time = sim.now
        self.done.fire(self.metrics)

    def close(self) -> None:
        """Stop listening on the member's port range."""
        for port in self.endpoint.ports:
            self.endpoint.host.transport.unlisten(port)
