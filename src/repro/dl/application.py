"""Deployed training jobs: the lifecycle every architecture shares.

:class:`Application` is what TensorLights, the experiment runtime and
the watchdog see of a job: its metrics, the ``done``/``terminal``
signals, the ``failed`` flag, and the source-port ranges its traffic
leaves each host on (:meth:`Application.classification_ranges`).  It
owns launch and teardown; a subclass only places its tasks —
:class:`DLApplication` (PS + workers) here, and
:class:`~repro.collectives.app.AllReduceApplication` (ring members).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.dl.job import JobSpec
from repro.dl.metrics import JobMetrics
from repro.dl.tasks import PSTask, TaskEndpoint, WorkerTask
from repro.errors import PlacementError
from repro.sim.primitives import AllOf, Signal
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.faults.plan import RecoverySpec


class Application:
    """A deployed job: its tasks, one process per task, and its lifecycle.

    A subclass builds its tasks (each with a ``name``, an ``endpoint``
    on a host, ``run(delay)`` and ``close()``) and hands them to
    :meth:`_deploy`.  :meth:`launch` spawns one process per task at
    ``spec.arrival_time`` plus one finalize process that waits for the
    finishing tasks, tears every task down and fires ``done``.
    """

    def __init__(self, spec: JobSpec, cluster: "Cluster") -> None:
        self.spec = spec
        self.cluster = cluster
        #: set when the job can never finish (e.g. a permanent PS crash);
        #: TensorLights' reconciler treats a failed job like a departed one
        self.failed = False
        self.metrics = JobMetrics(
            job_id=spec.job_id,
            n_workers=spec.n_workers,
            arrival_time=spec.arrival_time,
        )
        self.tasks: list = []
        #: one process per task, in ``tasks`` order (``None`` once a fault
        #: hook killed it); empty until :meth:`launch`
        self.procs: List[Optional[Process]] = []
        self._finishers: List[Signal] = []
        #: fired with the job's JobMetrics when the job has finished
        self.done = Signal()
        #: fired when the job reaches *any* terminal state — completion or
        #: permanent failure.  Unlike ``done`` (success only), waiting on
        #: this never hangs, so run-scoped services (samplers, telemetry)
        #: key their shutdown on it.
        self.terminal = Signal()
        self._launched = False

    def _deploy(self, tasks: list, finishers: list) -> None:
        """Make ``tasks`` resident; the job ends when every finisher is done."""
        self.tasks = tasks
        self._finishers = [task.done for task in finishers]
        for task in tasks:
            task.endpoint.host.add_task(task)

    def classification_ranges(self) -> Dict[str, List[Tuple[int, int]]]:
        """Source-port ranges carrying this job's egress traffic, per host."""
        raise NotImplementedError

    @property
    def ps_host_id(self) -> str:
        """The job's anchor host: its (first) PS, or a ring's leader."""
        return self.tasks[0].endpoint.host_id

    def mark_failed(self) -> None:
        """Record that the job can never finish (fault injection)."""
        self.failed = True
        if not self.terminal.fired:
            self.terminal.fire(None)

    def launch(self) -> None:
        """Spawn all task processes at ``spec.arrival_time``."""
        if self._launched:
            raise PlacementError(f"{self.spec.job_id} already launched")
        self._launched = True
        sim = self.cluster.sim
        delay = max(0.0, self.spec.arrival_time - sim.now)
        self.procs = [
            sim.spawn(task.run(delay), name=task.name) for task in self.tasks
        ]
        sim.spawn(self._finalize(), name=f"{self.spec.job_id}/finalize")

    def _finalize(self):
        yield AllOf(self._finishers)
        # Recoverable workers linger to answer post-crash replays; the
        # job is over — reap them.
        for proc in self.procs:
            if proc is not None and proc.alive:
                proc.kill()
        for task in self.tasks:
            task.close()
            task.endpoint.host.remove_task(task)
        self.done.fire(self.metrics)
        if not self.terminal.fired:
            self.terminal.fire(self.metrics)


class DLApplication(Application):
    """A deployed parameter-server DL job.

    Construction allocates ports and registers listeners; :meth:`launch`
    spawns the PS and worker processes (honoring ``spec.arrival_time``).

    ``ps_host`` may be a single host id (the common 1-PS case) or a list
    of ``spec.n_ps`` host ids for sharded jobs (repeats allowed: several
    shards may share a host).  Each PS's listening port — see
    :attr:`ps_ports` — is the key TensorLights uses to classify the job's
    model-update traffic.
    """

    def __init__(
        self,
        spec: JobSpec,
        cluster: "Cluster",
        ps_host: Union[str, Sequence[str]],
        worker_hosts: List[str],
        recovery: Optional["RecoverySpec"] = None,
    ) -> None:
        if len(worker_hosts) != spec.n_workers:
            raise PlacementError(
                f"{spec.job_id}: {spec.n_workers} workers but "
                f"{len(worker_hosts)} worker hosts"
            )
        ps_hosts = [ps_host] if isinstance(ps_host, str) else list(ps_host)
        if len(ps_hosts) == 1 and spec.n_ps > 1:
            ps_hosts = ps_hosts * spec.n_ps
        if len(ps_hosts) != spec.n_ps:
            raise PlacementError(
                f"{spec.job_id}: {spec.n_ps} PSes but {len(ps_hosts)} PS hosts"
            )
        overlap = set(ps_hosts) & set(worker_hosts)
        if overlap:
            raise PlacementError(
                f"{spec.job_id}: hosts {sorted(overlap)} are both PS and "
                "worker hosts"
            )
        super().__init__(spec, cluster)
        self.recovery = recovery

        self.ps_endpoints: List[TaskEndpoint] = []
        for hid in ps_hosts:
            machine = cluster.host(hid)
            self.ps_endpoints.append(TaskEndpoint(machine, machine.allocate_port()))

        self.worker_endpoints: List[TaskEndpoint] = []
        for whost in worker_hosts:
            machine = cluster.host(whost)
            self.worker_endpoints.append(
                TaskEndpoint(machine, machine.allocate_port())
            )

        self.ps_tasks = [
            PSTask(spec, ep, self.worker_endpoints, self.metrics,
                   shard_index=i, recovery=recovery)
            for i, ep in enumerate(self.ps_endpoints)
        ]
        for ps in self.ps_tasks:
            ps.on_abandon = self.mark_failed
        self.workers = [
            WorkerTask(spec, i, ep, self.ps_endpoints, self.metrics,
                       recovery=recovery)
            for i, ep in enumerate(self.worker_endpoints)
        ]
        self._deploy([*self.ps_tasks, *self.workers], finishers=self.ps_tasks)

    def classification_ranges(self) -> Dict[str, List[Tuple[int, int]]]:
        """One degenerate ``(port, port)`` range per PS endpoint.

        Only PS hosts appear: the model-update fan-out is the traffic
        TensorLights bands.
        """
        out: Dict[str, List[Tuple[int, int]]] = {}
        for ep in self.ps_endpoints:
            out.setdefault(ep.host_id, []).append((ep.port, ep.port))
        return out

    # -- convenience (single-PS common case) --------------------------------

    @property
    def ps(self) -> PSTask:
        """The (first) PS task."""
        return self.ps_tasks[0]

    @property
    def ps_port(self) -> int:
        return self.ps_endpoints[0].port

    @property
    def ps_ports(self) -> List[int]:
        return [ep.port for ep in self.ps_endpoints]

    # -- fault injection hooks (driven by repro.faults.injector) -----------

    def crash_ps(self, index: int = 0) -> None:
        """Kill PS shard ``index``: the process dies and the port closes."""
        ps = self.ps_tasks[index]
        if ps.done.fired or ps.crashed:
            return
        if self.procs:
            proc = self.procs[index]
            if proc is not None and proc.alive:
                proc.kill()
            self.procs[index] = None
        ps.crash()

    def recover_ps(self, index: int = 0, lost_iterations: int = 0) -> None:
        """Restart a crashed PS shard from its checkpoint."""
        ps = self.ps_tasks[index]
        if not ps.crashed:
            return
        if self.recovery is None:
            raise PlacementError(
                f"{self.spec.job_id}: cannot recover a PS without a RecoverySpec"
            )
        sim = self.cluster.sim
        proc = sim.spawn(ps.recover(lost_iterations), name=f"{ps.name}/recover")
        if self.procs:
            self.procs[index] = proc

    def kill_worker(self, index: int) -> None:
        """Kill worker ``index`` permanently (it never comes back)."""
        wk = self.workers[index]
        if self.procs:
            slot = len(self.ps_tasks) + index
            proc = self.procs[slot]
            if proc is not None and proc.alive:
                proc.kill()
            self.procs[slot] = None
        wk.close()
