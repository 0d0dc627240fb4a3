"""The Runtime layer: materialize a Scenario into a live simulation.

:func:`materialize` turns a declarative :class:`~repro.experiments.scenario.Scenario`
into a wired :class:`Runtime` (simulator, cluster, applications, optional
TensorLights controller); :meth:`Runtime.run` drives it to completion and
collects a plain-data :class:`ExperimentResult`.

Everything in an :class:`ExperimentResult` is picklable and JSON-friendly
— samplers are snapshotted into :class:`HostSamples` (plain series, no
host references) and per-job metrics are plain data — so results cross
process boundaries (the campaign's parallel executor) and round-trip
through the on-disk result cache.

Custom studies that need mid-build access (extra qdiscs, flow collectors,
alternative controllers, delivery taps) have two options: the declarative
build hooks a :class:`~repro.experiments.scenario.Scenario` carries
(:mod:`repro.experiments.hooks` — picklable, cache-visible, the route
the study engine uses for A6/A10/A12-style mechanisms; a hook with a
``controller`` swaps the TensorLights controller), or, for an in-process
observer that never touches the campaign cache, installing it on
``Runtime.cluster`` between :func:`materialize` and :meth:`Runtime.run`
(see ``experiments/figures/fct.py``): delivery taps and NIC receive
handlers are read at delivery time.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster import Cluster, ClusterScheduler, default_host_ids
from repro.collectives import AllReduceApplication
from repro.dl import Application, DLApplication, JobSpec
from repro.dl.metrics import JobMetrics
from repro.dl.model_zoo import get_model
from repro.errors import ConfigError, FaultError
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.hooks import get_build_hook
from repro.experiments.scenario import Scenario
from repro.faults import FaultInjector
from repro.net.link import Link
from repro.net.qdisc.netem import NetemQdisc
from repro.sim import Simulator
from repro.sim.watchdog import Watchdog
from repro.telemetry import ActiveWindow, HostSampler, window_mean
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sampler import SampleSeries
from repro.telemetry.scrape import scrape_cluster, tap_message_latency
from repro.tensorlights import TensorLights


@dataclass
class HostSamples:
    """Snapshot of one host's sampled utilization series.

    Plain data (no host or simulator references), so results stay
    picklable.  Attribute names match the ``series`` argument of
    :meth:`ExperimentResult.mean_utilization`.
    """

    cpu: SampleSeries = field(default_factory=SampleSeries)
    net_in: SampleSeries = field(default_factory=SampleSeries)
    net_out: SampleSeries = field(default_factory=SampleSeries)

    @classmethod
    def snapshot(cls, sampler: HostSampler) -> "HostSamples":
        """Detach a live sampler's series from its host."""
        return cls(cpu=sampler.cpu, net_in=sampler.net_in,
                   net_out=sampler.net_out)


@dataclass
class ExperimentResult:
    """Measurements of one run (plain data; crosses process boundaries)."""

    config: ExperimentConfig
    jcts: Dict[str, float]                    # job_id -> JCT
    metrics: Dict[str, JobMetrics]            # job_id -> full metrics
    ps_host_of_job: Dict[str, str]            # job_id -> PS host id
    samplers: Dict[str, HostSamples] = field(default_factory=dict)
    makespan: float = 0.0                     # launch of first to end of last
    sim_events: int = 0
    wall_seconds: float = 0.0
    tc_commands: List[str] = field(default_factory=list)
    host_ids: List[str] = field(default_factory=list)  # cluster's actual ids
    #: how many tc state changes the controller issued over the run (the
    #: paper's deployment-cost metric; 0 for uncontrolled runs).  Like
    #: ``wall_seconds``, this is control-plane observability — it is
    #: excluded from the result content hash.
    tc_reconfigurations: int = 0
    #: the fault injector's audit log (empty for fault-free runs)
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: the run's ``MetricsRegistry.snapshot()`` when it was materialized
    #: with ``metrics=True``; empty otherwise.  Deliberately NOT part of the
    #: serialized result schema (``result_to_full_dict``) — the content
    #: hash and the on-disk cache must be identical with metrics on or
    #: off, so this field is dropped on cache round-trips.
    metrics_snapshot: Dict[str, Any] = field(default_factory=dict)
    #: structured :class:`~repro.sim.watchdog.WatchdogViolation` dicts
    #: when the run was materialized with a watchdog mode; empty
    #: otherwise.  Observability like ``metrics_snapshot``: excluded from
    #: the serialized schema and the content hash, so enabling the
    #: watchdog cannot change what a result *is*.
    watchdog_violations: List[Dict[str, Any]] = field(default_factory=list)
    #: the result content hash as the result cache stored it: stamped by
    #: ``ResultCache.put`` and read back by ``ResultCache.get``, so a
    #: journaled campaign records it without re-hashing; ``None`` for a
    #: result that has not been through the cache.  Bookkeeping, not a
    #: measurement: excluded from comparisons and from the hash itself.
    content_hash: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def avg_jct(self) -> float:
        return float(np.mean(list(self.jcts.values())))

    @property
    def ps_hosts(self) -> List[str]:
        """Hosts running at least one PS."""
        return sorted(set(self.ps_host_of_job.values()))

    def worker_only_hosts(self) -> List[str]:
        """Hosts that run workers but no PS."""
        all_hosts = set(self.host_ids) if self.host_ids else set(
            default_host_ids(self.config.n_hosts)
        )
        return sorted(all_hosts - set(self.ps_hosts))

    # -- barrier wait aggregation (Figures 3 and 6) ---------------------------

    def barrier_wait_means(self) -> np.ndarray:
        """Per-barrier average waits, pooled over all jobs."""
        return np.concatenate(
            [m.barriers.per_barrier_mean() for m in self.metrics.values()]
        )

    def barrier_wait_variances(self) -> np.ndarray:
        """Per-barrier wait variances, pooled over all jobs."""
        return np.concatenate(
            [m.barriers.per_barrier_variance() for m in self.metrics.values()]
        )

    # -- utilization (Table II) -------------------------------------------------

    def mean_utilization(
        self, host_ids: List[str], series: str, window: ActiveWindow
    ) -> float:
        """Mean utilization over hosts of one kind in the active window.

        ``series`` is ``"cpu"``, ``"net_in"`` or ``"net_out"``.
        """
        if not self.samplers:
            raise ConfigError("run with sample_hosts=True to collect utilization")
        vals = [
            window_mean(getattr(self.samplers[h], series), window)
            for h in host_ids
        ]
        return float(np.mean(vals))


@dataclass
class Runtime:
    """A materialized scenario: live simulator plus everything wired to it.

    Returned by :func:`materialize`; most callers go straight to
    :meth:`run`, custom studies poke at the members first (install extra
    qdiscs, tap message deliveries, ...).
    """

    scenario: Scenario
    sim: Simulator
    cluster: Cluster
    scheduler: ClusterScheduler
    #: each job's anchor host — its (first) PS host, or for an all-reduce
    #: job the ring leader's host
    ps_hosts: List[str]
    apps: List[Application]
    controller: Optional[TensorLights]
    samplers: Dict[str, HostSampler]
    _wall_start: float
    injector: Optional[FaultInjector] = None
    #: the run's metrics registry (``materialize(metrics=True)``), filled
    #: at the end of :meth:`run`; ``None`` when metrics are off
    metrics: Optional[MetricsRegistry] = None
    #: the run's invariant watchdog (``materialize(watchdog="warn"|"raise")``),
    #: finalized by :meth:`run`; ``None`` when the watchdog is off
    watchdog: Optional[Watchdog] = None

    def run(self) -> ExperimentResult:
        """Launch every job, drive the simulation dry, collect results."""
        sim, apps, samplers = self.sim, self.apps, self.samplers
        config = self.scenario.config

        tc_commands = (
            self.controller.render_commands() if self.controller is not None else []
        )

        for app in apps:
            app.launch()

        if samplers:
            # Samplers loop forever; stop them the moment the last job
            # reaches a *terminal* state so the event queue can drain.
            # Waiting on ``done`` instead would hang forever on early-exit
            # paths (a permanently crashed PS, a proceed-with-survivors
            # job that abandons): those jobs never fire ``done``, and the
            # still-looping samplers keep the queue non-empty.
            from repro.sim.primitives import AllOf

            def stop_sampling():
                yield AllOf([a.terminal for a in apps])
                for s in samplers.values():
                    s.stop()

            sim.spawn(stop_sampling(), name="stop-sampling")

        sim.run()

        # Quiescence invariants run BEFORE the unfinished-jobs check: a
        # raise-mode watchdog should blame the leak/stall that *caused*
        # jobs to hang, not be masked by the generic hang error.
        watchdog_violations = (
            [v.to_dict() for v in self.watchdog.finalize()]
            if self.watchdog is not None else []
        )

        unfinished = [a.spec.job_id for a in apps if not a.metrics.finished]
        if unfinished:
            if self.injector is not None:
                raise FaultError(
                    f"jobs did not survive the fault plan: {unfinished}"
                )
            raise ConfigError(f"jobs did not finish: {unfinished}")

        metrics_snapshot: Dict[str, Any] = {}
        if self.metrics is not None:
            scrape_cluster(self.metrics, self.cluster, self.controller,
                           [a.metrics for a in apps], watchdog=self.watchdog)
            metrics_snapshot = self.metrics.snapshot()

        return ExperimentResult(
            config=config,
            jcts={a.spec.job_id: a.metrics.jct for a in apps},
            metrics={a.spec.job_id: a.metrics for a in apps},
            ps_host_of_job={a.spec.job_id: a.ps_host_id for a in apps},
            samplers={
                hid: HostSamples.snapshot(s) for hid, s in samplers.items()
            },
            makespan=max(a.metrics.end_time for a in apps),
            sim_events=sim.steps_executed,
            wall_seconds=time.perf_counter() - self._wall_start,
            tc_commands=tc_commands,
            host_ids=self.cluster.host_ids,
            tc_reconfigurations=(
                self.controller.reconfigurations
                if self.controller is not None else 0
            ),
            fault_events=(
                list(self.injector.events) if self.injector is not None else []
            ),
            metrics_snapshot=metrics_snapshot,
            watchdog_violations=watchdog_violations,
        )


def _assign_ps_hosts(scenario: Scenario, host_ids: List[str]) -> List[int]:
    """One PS host index per job from the config's placement policy.

    The policy sees the Table I baseline (the scenario's placement
    override, else the config's) and, if it wants them, job fingerprints
    — profiled once per shape via the process store, and a deterministic
    function of the shape, so the assignment stays content-addressable.
    """
    from repro.placement.policies import (
        PlacementContext,
        PlacementJob,
        get_placement_policy,
    )
    from repro.placement.store import FingerprintStore

    config = scenario.config
    policy = get_placement_policy(config.placement_policy)
    fingerprint = (
        FingerprintStore.default().get_or_profile(config)
        if policy.needs_fingerprints else None
    )
    ctx = PlacementContext(
        host_ids=tuple(host_ids),
        jobs=tuple(
            PlacementJob(
                index=j,
                arrival_time=j * config.launch_stagger,
                fingerprint=fingerprint,
            )
            for j in range(config.n_jobs)
        ),
        baseline=scenario.placement or config.placement(),
    )
    assignment = policy.assign(ctx)
    if len(assignment) != config.n_jobs:
        raise ConfigError(
            f"policy {policy.name!r} assigned {len(assignment)} jobs, "
            f"config has {config.n_jobs}"
        )
    return assignment


def check_scenario(scenario: Scenario) -> None:
    """Raise the placement errors :func:`materialize` would, building
    nothing: the baseline placement must scale to the job count, and a
    fingerprint-free placement policy must put every PS on a host."""
    config = scenario.config
    if Architecture(config.architecture) != Architecture.PS:
        return
    from repro.placement.policies import get_placement_policy

    if get_placement_policy(config.placement_policy).needs_fingerprints:
        if scenario.placement is None:
            config.placement()
        return
    host_ids = default_host_ids(config.n_hosts)
    ClusterScheduler(host_ids).ps_hosts_for_assignment(
        _assign_ps_hosts(scenario, host_ids)
    )


def materialize(
    scenario: Scenario,
    metrics: bool = False,
    watchdog: Optional[str] = None,
) -> Runtime:
    """Build the live simulation a scenario describes (without running it).

    An in-process observer goes on the returned runtime's cluster before
    :meth:`Runtime.run` (``rt.cluster.network.add_delivery_tap(tap)``).
    It is not part of the Scenario identity — scenarios run through the
    cached/parallel campaign path must not rely on it; declare a
    registered build hook on the scenario instead
    (:mod:`repro.experiments.hooks`), which is also how a run swaps the
    policy-derived TensorLights controller.

    Args:
        metrics: give the runtime a metrics registry
            (:attr:`Runtime.metrics`) and a message-latency delivery
            tap; :meth:`Runtime.run` then scrapes the cluster and the
            jobs into it and stores the snapshot in
            :attr:`ExperimentResult.metrics_snapshot`.  This is an
            in-process switch, not part of Scenario identity — it cannot
            change simulated results.
        watchdog: runtime invariant watchdog mode — ``None``/``"off"``
            (default), ``"warn"`` or ``"raise"``.  Builds the run's
            :attr:`Runtime.watchdog` with the byte-conservation, qdisc,
            port-leak, TensorLights-drift and stall checks registered for
            this run's cluster/apps/controller.  Same contract as
            ``metrics``: an observation switch whose heartbeat
            self-compensates the step counter, so result content hashes
            are unchanged.
    """
    config = scenario.config

    # Resolve the scenario's declarative build hooks up front: an unknown
    # hook name must fail before any simulator state exists, and at most
    # one hook may provide the controller.
    resolved_hooks = [
        (get_build_hook(name), dict(params)) for name, params in scenario.hooks
    ]
    make_controller = None
    for hook, params in resolved_hooks:
        if hook.controller is None:
            continue
        if make_controller is not None:
            raise ConfigError(
                f"hook {hook.name!r} provides a controller but another "
                "hook already set one"
            )
        make_controller = hook.controller(params)

    wall_start = time.perf_counter()
    sim = Simulator(seed=config.seed)
    cluster = Cluster(
        sim,
        n_hosts=config.n_hosts,
        cores_per_host=config.cores_per_host,
        link=Link(rate=config.link_rate),
        segment_bytes=config.segment_bytes,
        window_segments=config.window_segments,
        window_jitter=config.window_jitter,
        switch_buffer_bytes=config.switch_buffer_bytes,
        rto=config.rto,
    )
    arch = Architecture(config.architecture)
    # Ring members (and any mixed-in PS jobs) are placed by the
    # load-balancing scheduler; PS-architecture jobs take their hosts from
    # the placement policy, Table I's oblivious one included.
    scheduler = ClusterScheduler(cluster.host_ids)
    assigned_ps_hosts: List[str] = []
    if arch == Architecture.PS:
        assigned_ps_hosts = scheduler.ps_hosts_for_assignment(
            _assign_ps_hosts(scenario, cluster.host_ids)
        )

    model = get_model(config.model)
    if config.model_compute_factor != 1.0:
        model = model.scaled(
            f"{model.name}*{config.model_compute_factor:g}",
            compute_factor=config.model_compute_factor,
        )
    if make_controller is None and config.policy in (
        Policy.TLS_ONE, Policy.TLS_RR
    ):
        make_controller = get_build_hook("tl_controller").controller({})
    controller = (
        make_controller(cluster, config)
        if make_controller is not None else None
    )

    recovery = scenario.faults.recovery if scenario.faults is not None else None
    if scenario.faults is not None and (config.n_ps != 1 or not config.sync):
        raise ConfigError(
            "fault plans require single-PS synchronous jobs "
            f"(got n_ps={config.n_ps}, sync={config.sync})"
        )

    ring_jobs = config.allreduce_jobs()
    apps: List[Application] = []
    ps_hosts: List[str] = []  # per-job anchor host (PS host / ring leader)
    for j in range(config.n_jobs):
        ring = j in ring_jobs
        job_spec = JobSpec(
            job_id=f"job{j:02d}",
            model=model,
            n_workers=config.n_workers,
            local_batch_size=config.local_batch_size,
            target_global_steps=config.target_global_steps,
            sync=config.sync,
            arrival_time=j * config.launch_stagger,
            compute_jitter_sigma=config.compute_jitter_sigma,
            n_ps=config.n_ps,
            compression_ratio=config.compression_ratio,
            architecture="allreduce" if ring else "ps",
        )
        app: Application
        if ring:
            member_hosts = scheduler.ring_hosts(config.n_workers)
            app = AllReduceApplication(
                job_spec, cluster, member_hosts,
                channels=config.allreduce_channels,
            )
        else:
            ps_host = (assigned_ps_hosts[j] if arch == Architecture.PS
                       else scheduler.pick_ps_host())
            worker_hosts = scheduler.worker_hosts(ps_host, config.n_workers)
            app = DLApplication(job_spec, cluster, ps_host, worker_hosts,
                                recovery=recovery)
        if controller is not None:
            controller.attach(app)
        ps_hosts.append(app.ps_host_id)
        apps.append(app)

    if config.policy == Policy.DRR:
        # A4 ablation: per-flow fair queueing at contended PS hosts.
        from collections import Counter

        from repro.net.qdisc import DRRQdisc

        counts = Counter(ps_hosts)
        for host_id, n_ps in counts.items():
            if n_ps >= 2:
                cluster.host(host_id).nic.set_qdisc(DRRQdisc())

    if config.netem_loss > 0 or config.netem_delay > 0:
        # Netem-style egress impairment at worker-only hosts.  PS hosts
        # are exempt: a lossy qdisc there would silently replace the
        # TensorLights HTB under study.
        ps_host_set = set(ps_hosts)
        for hid in cluster.host_ids:
            if hid in ps_host_set:
                continue
            nic = cluster.host(hid).nic
            nic.loss_tolerant = True
            nic.set_qdisc(NetemQdisc(
                delay=config.netem_delay,
                jitter=config.netem_jitter,
                loss=config.netem_loss,
                seed=zlib.crc32(f"netem/{hid}".encode()) ^ config.seed,
            ))

    injector: Optional[FaultInjector] = None
    if scenario.faults is not None:
        # Crashes orphan traffic mid-flight; the run must survive drops at
        # dead ports and egress loss instead of failing loudly.
        for hid in cluster.host_ids:
            host = cluster.host(hid)
            host.nic.loss_tolerant = True
            host.transport.tolerate_unrouted = True
        injector = FaultInjector(
            scenario.faults,
            cluster=cluster,
            apps=apps,
            controller=controller,
            seed=config.seed,
        )
        injector.arm()

    samplers: Dict[str, HostSampler] = {}
    if config.sample_hosts:
        for hid in cluster.host_ids:
            samplers[hid] = HostSampler(
                cluster.host(hid), interval=config.sample_interval
            )
            samplers[hid].start()

    registry: Optional[MetricsRegistry] = None
    if metrics:
        registry = MetricsRegistry()
        tap_message_latency(registry, cluster.network)

    watcher: Optional[Watchdog] = None
    if watchdog is not None and watchdog != "off":
        from repro.dl.invariants import register_dl_checks
        from repro.net.invariants import register_net_checks
        from repro.tensorlights.invariants import register_tensorlights_checks

        watcher = Watchdog(sim, watchdog)
        register_net_checks(watcher, cluster)
        register_dl_checks(watcher, cluster, apps)
        if controller is not None:
            register_tensorlights_checks(watcher, controller)
        watcher.start()

    runtime = Runtime(
        scenario=scenario,
        sim=sim,
        cluster=cluster,
        scheduler=scheduler,
        ps_hosts=ps_hosts,
        apps=apps,
        controller=controller,
        samplers=samplers,
        _wall_start=wall_start,
        injector=injector,
        metrics=registry,
        watchdog=watcher,
    )
    for hook, params in resolved_hooks:
        if hook.post_build is not None:
            hook.post_build(runtime, params)
    return runtime


#: Environment fallback for the watchdog mode — inherited by campaign
#: pool workers, so ``REPRO_WATCHDOG=warn tensorlights ...`` watches a
#: whole parallel sweep without any call-site plumbing.
WATCHDOG_ENV = "REPRO_WATCHDOG"


def execute_scenario(
    scenario: Scenario,
    metrics: bool = False,
    watchdog: Optional[str] = None,
) -> ExperimentResult:
    """Materialize and run one scenario to completion.

    The top-level entry point the campaign executors submit — importable
    by name, takes and returns only picklable values.  ``metrics`` and
    ``watchdog`` are the observability switches of :func:`materialize`;
    ``watchdog`` falls back to ``$REPRO_WATCHDOG`` when unset.
    """
    if watchdog is None:
        watchdog = os.environ.get(WATCHDOG_ENV) or None
    return materialize(scenario, metrics=metrics, watchdog=watchdog).run()
