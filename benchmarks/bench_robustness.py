"""Robustness: does the TensorLights result survive hostile conditions?

A12 — noisy neighbors: background CPU load on worker hosts plus non-DL
bulk traffic crossing the contended PS host's NIC.  TensorLights cannot
schedule the interference (it is unclassified traffic / other tenants),
but its improvement on the DL jobs should survive.

A13 — lossy fabric: a netem egress qdisc at every *worker* host adds
random loss and delay jitter (the PS host keeps its HTB — the paper only
configures contended hosts).  The improvement should degrade gracefully,
not invert.
"""

import numpy as np
from conftest import run_once

from repro.cluster import Cluster, ClusterScheduler
from repro.cluster.antagonist import CpuAntagonist, NetworkAntagonist
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import get_model
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.report import TextTable
from repro.net.link import Link
from repro.net.qdisc import NetemQdisc
from repro.sim import Simulator
from repro.tensorlights import TensorLights, TLMode


def _run(cfg, policy, noisy=False, lossy=False):
    sim = Simulator(seed=cfg.seed)
    cluster = Cluster(
        sim, n_hosts=cfg.n_hosts, cores_per_host=cfg.cores_per_host,
        link=Link(rate=cfg.link_rate), segment_bytes=cfg.segment_bytes,
        window_segments=cfg.window_segments, window_jitter=cfg.window_jitter,
        switch_buffer_bytes=cfg.switch_buffer_bytes, rto=cfg.rto,
    )
    scheduler = ClusterScheduler(cluster.host_ids)
    placement = cfg.placement()
    ps_hosts = scheduler.ps_hosts_for_assignment(
        [placement.ps_host_of_job(j) for j in range(placement.n_jobs)]
    )
    model = get_model(cfg.model)
    controller = None
    if policy == Policy.TLS_ONE:
        controller = TensorLights(cluster, mode=TLMode.ONE,
                                  max_bands=cfg.max_bands)
    apps = []
    for j in range(cfg.n_jobs):
        spec = JobSpec(
            job_id=f"job{j:02d}", model=model, n_workers=cfg.n_workers,
            local_batch_size=cfg.local_batch_size,
            target_global_steps=cfg.target_global_steps,
            arrival_time=j * cfg.launch_stagger,
            compute_jitter_sigma=cfg.compute_jitter_sigma,
        )
        workers = scheduler.worker_hosts(ps_hosts[j], cfg.n_workers)
        app = DLApplication(spec, cluster, ps_hosts[j], workers)
        if controller is not None:
            controller.attach(app)
        apps.append(app)

    stoppers = []
    if noisy:
        # 2 cores of background load on a third of the worker hosts, plus
        # bulk traffic crossing the contended PS host's NIC.
        for hid in cluster.host_ids[1::3]:
            ant = CpuAntagonist(cluster.host(hid), intensity=2.0)
            ant.start()
            stoppers.append(ant)
        bulk = NetworkAntagonist(cluster, ps_hosts[0],
                                 cluster.host_ids[-1], rate=cfg.link_rate / 10)
        bulk.start()
        stoppers.append(bulk)
    if lossy:
        for hid in cluster.host_ids:
            if hid == ps_hosts[0]:
                continue  # the paper only reconfigures contended hosts
            cluster.host(hid).nic.set_qdisc(
                NetemQdisc(delay=2e-4, jitter=5e-5, loss=0.0, seed=1)
            )

    from repro.sim.primitives import AllOf

    def stop_all():
        yield AllOf([a.done for a in apps])
        for s in stoppers:
            s.stop()

    sim.spawn(stop_all(), name="stop-antagonists")
    for app in apps:
        app.launch()
    sim.run()
    return float(np.mean([a.metrics.jct for a in apps]))


def test_a12_noisy_neighbors(benchmark, bench_config):
    cfg = bench_config.replace(iterations=max(10, bench_config.iterations // 2),
                               placement_index=1)

    def run_all():
        return {
            ("clean", "fifo"): _run(cfg, Policy.FIFO),
            ("clean", "tls-one"): _run(cfg, Policy.TLS_ONE),
            ("noisy", "fifo"): _run(cfg, Policy.FIFO, noisy=True),
            ("noisy", "tls-one"): _run(cfg, Policy.TLS_ONE, noisy=True),
        }

    jcts = run_once(benchmark, run_all)
    table = TextTable(["Environment", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm"],
                      title="A12: noisy neighbors (placement #1)")
    for env in ("clean", "noisy"):
        f, t = jcts[(env, "fifo")], jcts[(env, "tls-one")]
        table.add_row(env, f, t, t / f)
    print()
    print(table.render())
    assert jcts[("noisy", "fifo")] > jcts[("clean", "fifo")]  # noise hurts
    # TensorLights still wins under interference
    assert jcts[("noisy", "tls-one")] < 0.95 * jcts[("noisy", "fifo")]


def test_a13_jittery_fabric(benchmark, bench_config):
    cfg = bench_config.replace(iterations=max(10, bench_config.iterations // 2),
                               placement_index=1)

    def run_all():
        return {
            ("clean", "fifo"): _run(cfg, Policy.FIFO),
            ("clean", "tls-one"): _run(cfg, Policy.TLS_ONE),
            ("jitter", "fifo"): _run(cfg, Policy.FIFO, lossy=True),
            ("jitter", "tls-one"): _run(cfg, Policy.TLS_ONE, lossy=True),
        }

    jcts = run_once(benchmark, run_all)
    table = TextTable(["Environment", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm"],
                      title="A13: netem delay jitter at worker hosts (placement #1)")
    for env in ("clean", "jitter"):
        f, t = jcts[(env, "fifo")], jcts[(env, "tls-one")]
        table.add_row(env, f, t, t / f)
    print()
    print(table.render())
    # degradation is graceful: TLs still at least matches FIFO
    assert jcts[("jitter", "tls-one")] < 1.02 * jcts[("jitter", "fifo")]
