"""PS and worker task processes.

The communication pattern follows Figure 1 of the paper:

* the PS broadcasts a *model update* to every worker;
* each worker computes on its local batch, then sends a *gradient update*;
* synchronous training: the PS barriers on all gradients before the next
  broadcast;
* asynchronous training: the PS answers each gradient immediately with a
  fresh model for that worker only.

A worker's *barrier wait* is measured exactly as in the paper: from the
moment it enters the barrier (last gradient update handed to the
transport) until it exits (model update fully received).

Multi-PS jobs (paper §III: "In a more general case where one DL job has
multiple PSes, each PS communicates with remote workers in a similar
way"): the model is sharded across ``spec.n_ps`` parameter servers, each
exchanging a ``1/n_ps``-size shard with every worker per iteration.  A
worker exits the barrier when all shards of the iteration have arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.dl.job import JobSpec
from repro.dl.metrics import JobMetrics
from repro.net.addressing import FlowKey
from repro.net.packet import Message
from repro.sim.primitives import Mailbox, Signal
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.faults.plan import RecoverySpec


MODEL_UPDATE = "model_update"
GRADIENT_UPDATE = "gradient_update"


@dataclass
class TaskEndpoint:
    """Where a task lives: host + listening port."""

    host: "Host"
    port: int

    @property
    def host_id(self) -> str:
        return self.host.host_id

    @property
    def ports(self) -> List[int]:
        """The one listening port (same shape as ``RingEndpoint.ports``)."""
        return [self.port]


class _Task:
    """What a PS and a worker share: a listening inbox and one timer."""

    def __init__(self, spec: JobSpec, name: str, endpoint: TaskEndpoint,
                 metrics: JobMetrics, recovery: Optional["RecoverySpec"]) -> None:
        self.spec = spec
        self.name = name
        self.endpoint = endpoint
        self.metrics = metrics
        self.recovery = recovery
        self.inbox = Mailbox(endpoint.host.sim, name=name)
        endpoint.host.transport.listen(endpoint.port, self.inbox.put)
        self._wait_seq = 0
        self._shard_bytes = spec.shard_bytes

    def _arm(self, delay: float) -> int:
        """Drop a timer tick (its ``int`` sequence number) into the inbox.

        The kernel has no select-with-timeout.  A loop keeps one live
        deadline, the latest returned, and drops a superseded tick WITHOUT
        re-arming, else every stale tick breeds another timer and the
        live one is never current — a silent livelock.
        """
        self._wait_seq += 1
        self.endpoint.host.sim.schedule(delay, self.inbox.put, (self._wait_seq,))
        return self._wait_seq

    def close(self) -> None:
        """Stop listening on the task's port (idempotent)."""
        self.endpoint.host.transport.unlisten(self.endpoint.port)


class WorkerTask(_Task):
    """One worker: receives model shards, computes, sends gradient shards."""

    def __init__(self, spec: JobSpec, worker_index: int, endpoint: TaskEndpoint,
                 ps_endpoints: List[TaskEndpoint], metrics: JobMetrics,
                 recovery: Optional["RecoverySpec"] = None) -> None:
        super().__init__(spec, f"{spec.job_id}/wk{worker_index:02d}",
                         endpoint, metrics, recovery)
        self.worker_index = worker_index
        self.ps_endpoints = list(ps_endpoints)
        self.local_step = 0
        # One flow per PS, built once: endpoints are fixed for the run.
        self._gradient_flows: List[FlowKey] = [
            FlowKey(endpoint.host_id, endpoint.port, ps.host_id, ps.port)
            for ps in self.ps_endpoints
        ]

    def _send_gradient(self, iteration: int) -> None:
        """Send this iteration's gradient shard to every PS."""
        for flow in self._gradient_flows:
            gradient = Message(
                flow=flow,
                size=self._shard_bytes,
                kind=GRADIENT_UPDATE,
                meta={"job": self.spec.job_id, "worker": self.worker_index,
                      "iteration": iteration},
            )
            self.endpoint.host.transport.send_message(gradient)

    def run(self, delay: float = 0.0):
        """The worker process (a simulation generator), ``delay`` late.

        Driven by the model update's iteration: the barrier exits on the
        last of its ``n_ps`` shards.  Without ``recovery`` the worker
        returns after ``spec.local_steps_per_worker`` steps and arms no
        timer.  With it, a silent PS gets gradient re-sends (exponential
        backoff, at most ``max_retries``), a checkpoint replay gets the
        gradient already computed, and the worker stays to answer replays
        until the application kills it at job completion.
        """
        if delay > 0:
            yield Timeout(delay)
        sim = self.endpoint.host.sim
        cpu = self.endpoint.host.cpu
        spec = self.spec
        rec = self.recovery
        n_shards = len(self.ps_endpoints)
        shards = 0                  # shards of the next iteration received
        last_done = -1              # highest iteration fully processed
        barrier_entered_at: Optional[float] = None
        retries = 0
        wait = rec.worker_timeout if rec is not None else 0.0
        live_seq: Optional[int] = None

        while rec is not None or self.local_step < spec.local_steps_per_worker:
            if rec is not None and live_seq is None:
                live_seq = self._arm(wait)
            msg = yield self.inbox.get()
            if isinstance(msg, int):
                if msg != live_seq:
                    continue        # superseded deadline: drop, don't re-arm
                live_seq = None     # consumed; re-arm at the loop top
                if retries >= rec.max_retries:
                    return          # PS silent for the whole budget: give up
                retries += 1
                wait *= rec.backoff
                if last_done >= 0:
                    # Our gradient (or the broadcast answering it) may have
                    # died with a crashed PS — re-enter the barrier.
                    self._send_gradient(last_done)
                continue
            assert msg.kind == MODEL_UPDATE, f"{self.name} got {msg.kind}"
            if rec is not None:
                retries = 0
                wait = rec.worker_timeout
                live_seq = None     # real traffic: restart the silence window
            iteration = msg.meta["iteration"]
            if iteration <= last_done:
                self._send_gradient(iteration)  # a replay: don't recompute
                continue
            shards += 1
            if shards < n_shards:
                continue
            shards = 0
            if barrier_entered_at is not None:
                # Also overwrites the retry timeout (ROADMAP item 1, cause 2).
                wait = sim.now - barrier_entered_at
                self.metrics.barriers.record(iteration - 1, wait)
            jitter = sim.rng.lognormal_factor(
                f"compute/{self.name}", spec.compute_jitter_sigma
            )
            yield cpu.run(spec.compute_demand_per_step * jitter)
            self.local_step += 1
            self.metrics.local_steps[self.name] = self.local_step
            # Barrier entry = last gradient shard handed to the transport.
            self._send_gradient(iteration)
            barrier_entered_at = sim.now
            last_done = iteration


class PSTask(_Task):
    """One parameter server (or one shard of a multi-PS job).

    Synchronous mode barriers on all workers' gradient shards before
    re-broadcasting; asynchronous mode echoes a fresh shard to each worker
    as its gradient arrives.
    """

    def __init__(self, spec: JobSpec, endpoint: TaskEndpoint,
                 worker_endpoints: List[TaskEndpoint], metrics: JobMetrics,
                 shard_index: int = 0, recovery: Optional["RecoverySpec"] = None) -> None:
        name = f"{spec.job_id}/ps" if spec.n_ps == 1 else f"{spec.job_id}/ps{shard_index}"
        super().__init__(spec, name, endpoint, metrics, recovery)
        self.shard_index = shard_index
        self.worker_endpoints = worker_endpoints
        self.done = Signal()
        #: invoked if the proceed-mode sync loop abandons the job (every
        #: worker silent past the retry budget) — the application marks the job
        #: failed so run-scoped services see a terminal state
        self.on_abandon: Optional[Callable[[], None]] = None
        self.global_step = 0
        # fault-injection state (sync loop only)
        self.crashed = False
        self.crash_iteration = 0
        self._iteration = 0
        # One flow per worker (indexed like ``worker_endpoints``), built
        # once: endpoints are fixed for the run.
        self._model_flows: List[FlowKey] = [
            FlowKey(endpoint.host_id, endpoint.port, w.host_id, w.port)
            for w in worker_endpoints
        ]

    def _broadcast(
        self, iteration: int, workers: Optional[Iterable[int]] = None
    ) -> None:
        """Send model-shard updates; the burst that contends at the NIC.

        ``workers`` selects recipients by worker index (default: all).
        """
        flows = self._model_flows
        if workers is not None:
            flows = [flows[w] for w in workers]
        for flow in flows:
            self.endpoint.host.transport.send_message(
                Message(
                    flow=flow,
                    size=self._shard_bytes,
                    kind=MODEL_UPDATE,
                    meta={"job": self.spec.job_id, "iteration": iteration,
                          "shard": self.shard_index},
                )
            )

    def _mark_progress(self, sim) -> None:
        if self.metrics.start_time < 0 or sim.now < self.metrics.start_time:
            self.metrics.start_time = sim.now

    def run(self, delay: float = 0.0):
        """The PS process (a simulation generator), ``delay`` late."""
        if delay > 0:
            yield Timeout(delay)
        yield from (self._run_sync(0) if self.spec.sync else self._run_async())

    def _run_sync(self, start_iteration: int):
        """The synchronous loop, from ``start_iteration`` to the end.

        The barrier is idempotent (gradients deduplicated per worker and
        iteration, stale ones ignored) so worker retries and checkpoint
        replays are harmless.  Only in ``barrier_mode="proceed"`` is each
        wait bounded by a timer, so the iteration can close with the
        surviving workers.
        """
        sim = self.endpoint.host.sim
        cpu = self.endpoint.host.cpu
        spec = self.spec
        rec = self.recovery
        proceed = rec is not None and rec.barrier_mode == "proceed"
        self._mark_progress(sim)
        n = spec.n_workers
        for iteration in range(start_iteration, spec.n_iterations):
            self._iteration = iteration
            self._broadcast(iteration)
            got: Set[int] = set()
            stalls = 0
            timer_seq: Optional[int] = None     # the live deadline (_arm)
            while len(got) < n:
                if proceed and timer_seq is None:
                    timer_seq = self._arm(rec.barrier_timeout)
                msg = yield self.inbox.get()
                if isinstance(msg, int):
                    if msg != timer_seq:
                        continue        # superseded deadline: drop
                    timer_seq = None    # consumed; re-arm at the loop top
                    stalls += 1
                    if got and stalls > rec.barrier_grace:
                        break           # proceed with the survivors
                    if not got and stalls > rec.max_retries:
                        # Every worker is gone: abandon the job.
                        if self.on_abandon is not None:
                            self.on_abandon()
                        return
                    # The model update may have died with a crashed queue;
                    # re-broadcast to the workers still missing.
                    self._broadcast(iteration, workers=[
                        w for w in range(n) if w not in got
                    ])
                    continue
                if msg.kind != GRADIENT_UPDATE:
                    continue            # stray message during churn
                if msg.meta.get("iteration") != iteration:
                    continue            # stale gradient from before a rewind
                widx = msg.meta["worker"]
                if widx in got:
                    continue            # duplicate (worker retry)
                got.add(widx)
                timer_seq = None        # progress: restart the silence window
                if spec.ps_update_compute_per_shard > 0:
                    yield cpu.run(spec.ps_update_compute_per_shard)
                self.global_step += 1
            if self.shard_index == 0:
                self.metrics.iterations_done = max(
                    self.metrics.iterations_done, iteration + 1
                )
        self._finish(sim)

    # -- crash / checkpoint-restart (driven by the fault injector) ---------

    def crash(self) -> None:
        """The PS process dies: stop listening, lose all in-memory state.

        The listening port closes and queued messages vanish with the
        fresh inbox; :attr:`crash_iteration` remembers where the run was
        so :meth:`recover` can rewind to the checkpoint.  The generator
        itself is killed by the application (which holds the process
        handle).
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_iteration = self._iteration
        self.close()
        self.inbox = Mailbox(self.endpoint.host.sim, name=f"{self.name}/restart")

    def recover(self, lost_iterations: int = 0):
        """Restart from the checkpoint, rewound by ``lost_iterations``.

        Returns the new process generator (the caller spawns it) — the
        restarted loop re-broadcasts the rewound iteration's model, and
        workers answer replays from their cached gradients.
        """
        self.crashed = False
        resume = max(0, self.crash_iteration - lost_iterations)
        self._iteration = resume
        self.endpoint.host.transport.listen(self.endpoint.port, self.inbox.put)
        return self._run_sync(resume)

    def _run_async(self):
        sim = self.endpoint.host.sim
        cpu = self.endpoint.host.cpu
        spec = self.spec
        self._mark_progress(sim)
        # Kick off every worker with an initial model shard.
        self._broadcast(0)
        steps_by_worker: Dict[int, int] = {i: 0 for i in range(spec.n_workers)}
        per_worker_cap = spec.local_steps_per_worker
        while self.global_step < per_worker_cap * spec.n_workers:
            msg = yield self.inbox.get()
            assert msg.kind == GRADIENT_UPDATE
            if spec.ps_update_compute_per_shard > 0:
                yield cpu.run(spec.ps_update_compute_per_shard)
            self.global_step += 1
            widx = msg.meta["worker"]
            steps_by_worker[widx] += 1
            if steps_by_worker[widx] < per_worker_cap:
                self._broadcast(steps_by_worker[widx], workers=(widx,))
        if self.shard_index == 0:
            self.metrics.iterations_done = self.global_step // spec.n_workers
        self._finish(sim)

    def _finish(self, sim) -> None:
        if sim.now > self.metrics.end_time:
            self.metrics.end_time = sim.now
        self.close()
        self.done.fire(self.metrics)
