"""Dynamic cluster workloads: job arrivals, online placement, departures.

The paper's evaluation launches all 21 jobs at once with a fixed
placement.  Production clusters (paper §II) instead see a *stream* of job
submissions placed online by a scheduler that is agnostic of PS/worker
roles.  This module generates such streams and runs them end to end:

* :class:`WorkloadSpec` + :func:`generate_jobs` — Poisson arrivals, a
  model mix, and a job-length distribution;
* :func:`run_dynamic_cluster` — an online run: each job's PS host is
  chosen *at submission time* by a :class:`ClusterScheduler` policy, and
  load is released on completion.  TensorLights attaches/detaches with
  the jobs, exactly as §IV-B prescribes for batch processing mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterScheduler, SchedulingPolicy
from repro.collectives import AllReduceApplication
from repro.dl import Application, DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec, get_model
from repro.errors import WorkloadError
from repro.experiments.config import ExperimentConfig
from repro.experiments.hooks import get_build_hook
from repro.net.link import Link
from repro.sim import Simulator
from repro.sim.process import Timeout
from repro.tensorlights import TLMode


@dataclass(frozen=True)
class WorkloadSpec:
    """A stochastic job stream.

    Attributes:
        n_jobs: number of jobs to generate.
        arrival_rate: mean arrivals per second (Poisson process).
        models: (model name, weight) mix.
        iterations_range: inclusive (lo, hi) of per-job iteration counts
            (uniform); heterogeneous lengths create ongoing arrivals and
            departures.
        n_workers: workers per job.
        local_batch_size: samples per worker step.
        architectures: (architecture, weight) mix over ``"ps"`` and
            ``"allreduce"`` — production clusters run both side by side,
            and TensorLights must band whatever arrives.
    """

    n_jobs: int = 12
    arrival_rate: float = 0.5
    models: Tuple[Tuple[str, float], ...] = (("resnet32_cifar10", 1.0),)
    iterations_range: Tuple[int, int] = (10, 30)
    n_workers: int = 10
    local_batch_size: int = 4
    architectures: Tuple[Tuple[str, float], ...] = (("ps", 1.0),)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise WorkloadError("n_jobs must be >= 1")
        if self.arrival_rate <= 0:
            raise WorkloadError("arrival_rate must be positive")
        if not self.models:
            raise WorkloadError("need at least one model in the mix")
        lo, hi = self.iterations_range
        if not 1 <= lo <= hi:
            raise WorkloadError(f"bad iterations_range {self.iterations_range}")
        if not self.architectures:
            raise WorkloadError("need at least one architecture in the mix")
        for arch, weight in self.architectures:
            if arch not in ("ps", "allreduce"):
                raise WorkloadError(f"unknown architecture {arch!r} in mix")
            if weight < 0:
                raise WorkloadError(f"negative weight for {arch!r}")
            if arch == "allreduce" and weight > 0 and self.n_workers < 2:
                raise WorkloadError(
                    "all-reduce jobs need n_workers >= 2 ring members"
                )


def generate_jobs(
    spec: WorkloadSpec, seed: int = 0, model_overrides: Optional[dict] = None
) -> List[JobSpec]:
    """Sample a deterministic job stream from a workload spec."""
    rng = np.random.default_rng(seed)
    names = [m for m, _ in spec.models]
    weights = np.array([w for _, w in spec.models], dtype=float)
    weights /= weights.sum()
    arch_names = [a for a, _ in spec.architectures]
    arch_weights = np.array([w for _, w in spec.architectures], dtype=float)
    arch_weights /= arch_weights.sum()
    lo, hi = spec.iterations_range

    jobs: List[JobSpec] = []
    t = 0.0
    for i in range(spec.n_jobs):
        t += float(rng.exponential(1.0 / spec.arrival_rate))
        name = names[int(rng.choice(len(names), p=weights))]
        model = get_model(name)
        if model_overrides and name in model_overrides:
            model = model_overrides[name]
        iterations = int(rng.integers(lo, hi + 1))
        # A single-entry mix draws nothing, keeping pre-existing
        # pure-PS streams bit-identical for a given seed.
        arch = (arch_names[0] if len(arch_names) == 1 else
                arch_names[int(rng.choice(len(arch_names), p=arch_weights))])
        jobs.append(
            JobSpec(
                job_id=f"job{i:03d}",
                model=model,
                n_workers=spec.n_workers,
                local_batch_size=spec.local_batch_size,
                target_global_steps=iterations * spec.n_workers,
                arrival_time=t,
                architecture=arch,
            )
        )
    return jobs


@dataclass
class DynamicRunResult:
    """Outcome of one online run."""

    jcts: Dict[str, float]
    ps_host_of_job: Dict[str, str]
    makespan: float
    max_colocation: int
    tc_reconfigurations: int

    @property
    def avg_jct(self) -> float:
        return float(np.mean(list(self.jcts.values())))


def run_dynamic_cluster(
    jobs: Sequence[JobSpec],
    n_hosts: int = 11,
    link_rate: float = 1.25e9,
    scheduler_policy: SchedulingPolicy = SchedulingPolicy.RANDOM,
    tensorlights: Optional[TLMode] = None,
    tls_interval: float = 2.0,
    seed: int = 0,
    switch_buffer_bytes: Optional[float] = 4e6,
    rto: float = 0.02,
    window_jitter: float = 0.5,
) -> DynamicRunResult:
    """Submit ``jobs`` online; place each PS at its arrival instant."""
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, n_hosts=n_hosts, link=Link(rate=link_rate),
        window_jitter=window_jitter,
        switch_buffer_bytes=switch_buffer_bytes, rto=rto,
    )
    scheduler = ClusterScheduler(
        cluster.host_ids, policy=scheduler_policy, rng=sim.rng
    )
    # The controller hook reads only tls_interval and max_bands from the
    # config once the mode is given.
    controller = (
        get_build_hook("tl_controller").controller(
            {"mode": tensorlights.value}
        )(cluster, ExperimentConfig(tls_interval=tls_interval))
        if tensorlights is not None
        else None
    )
    apps: List[Application] = []
    max_coloc = {"v": 0}

    def submitter():
        for job in sorted(jobs, key=lambda j: j.arrival_time):
            delay = job.arrival_time - sim.now
            if delay > 0:
                yield Timeout(delay)
            # the job starts now — online semantics, not a prescheduled time
            import dataclasses

            live_spec = dataclasses.replace(job, arrival_time=sim.now)
            app: Application
            if job.architecture == "allreduce":
                member_hosts = scheduler.ring_hosts(job.n_workers)
                app = AllReduceApplication(live_spec, cluster, member_hosts)

                def release(app=app, member_hosts=member_hosts):
                    yield app.done
                    scheduler.release_ring(member_hosts)

            else:
                ps_host = scheduler.pick_ps_host()
                worker_hosts = scheduler.worker_hosts(ps_host, job.n_workers)
                app = DLApplication(live_spec, cluster, ps_host, worker_hosts)

                def release(app=app, ps_host=ps_host, worker_hosts=worker_hosts):
                    yield app.done
                    scheduler.release_job(ps_host, worker_hosts)

            profile = scheduler.colocation_profile()
            max_coloc["v"] = max(max_coloc["v"], max(profile, default=0))
            if controller is not None:
                controller.attach(app)
            app.launch()
            apps.append(app)

            sim.spawn(release(), name=f"release/{job.job_id}")

    sim.spawn(submitter(), name="submitter")
    sim.run()

    unfinished = [a.spec.job_id for a in apps if not a.metrics.finished]
    if unfinished or len(apps) != len(jobs):
        raise WorkloadError(f"jobs did not finish: {unfinished or 'missing apps'}")
    return DynamicRunResult(
        jcts={a.spec.job_id: a.metrics.jct for a in apps},
        ps_host_of_job={a.spec.job_id: a.ps_host_id for a in apps},
        makespan=max(a.metrics.end_time for a in apps),
        max_colocation=max_coloc["v"],
        tc_reconfigurations=controller.reconfigurations if controller else 0,
    )
