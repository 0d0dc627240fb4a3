"""Integration tests: full DL jobs running on a simulated cluster."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec, get_model
from repro.errors import PlacementError
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.sim import Simulator

FAST_MODEL = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.01,
                       ps_update_compute=0.0005)


def make_cluster(sim, n_hosts=4):
    return Cluster(sim, n_hosts=n_hosts, link=Link(rate=1.25e9),
                   segment_bytes=64 * 1024)


def make_app(sim, cluster, job_id="j0", n_workers=3, steps=30, sync=True,
             arrival=0.0, model=FAST_MODEL):
    spec = JobSpec(job_id, model, n_workers=n_workers, local_batch_size=4,
                   target_global_steps=steps, sync=sync, arrival_time=arrival)
    hosts = cluster.host_ids
    return DLApplication(spec, cluster, ps_host=hosts[0],
                         worker_hosts=hosts[1 : 1 + n_workers])


def test_wrong_worker_host_count():
    sim = Simulator()
    cluster = make_cluster(sim)
    spec = JobSpec("j", FAST_MODEL, n_workers=3, target_global_steps=30)
    with pytest.raises(PlacementError):
        DLApplication(spec, cluster, ps_host="h00", worker_hosts=["h01"])


def test_ps_host_cannot_be_worker_host():
    sim = Simulator()
    cluster = make_cluster(sim)
    spec = JobSpec("j", FAST_MODEL, n_workers=3, target_global_steps=30)
    with pytest.raises(PlacementError):
        DLApplication(spec, cluster, ps_host="h00",
                      worker_hosts=["h00", "h01", "h02"])


def test_double_launch_rejected():
    sim = Simulator()
    cluster = make_cluster(sim)
    app = make_app(sim, cluster)
    app.launch()
    with pytest.raises(PlacementError):
        app.launch()


def test_sync_job_completes_with_exact_global_steps():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=30, n_workers=3)
    app.launch()
    sim.run()
    m = app.metrics
    assert m.finished
    assert m.global_steps == 30
    assert m.iterations_done == 10
    assert all(steps == 10 for steps in m.local_steps.values())


def test_sync_barrier_waits_recorded_for_all_but_last_iteration():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=30, n_workers=3)
    app.launch()
    sim.run()
    barriers = app.metrics.barriers
    assert barriers.complete_barriers() == list(range(9))  # 10 iters - 1
    assert (barriers.per_barrier_mean() >= 0).all()


def test_async_job_completes():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=30, n_workers=3, sync=False)
    app.launch()
    sim.run()
    m = app.metrics
    assert m.finished
    assert m.global_steps == 30


def test_async_faster_than_sync_with_straggler_worker():
    """Async lets fast workers proceed; with identical workers the two
    modes are close, so give one worker a slow host via CPU preload."""
    def run(sync):
        sim = Simulator(seed=2)
        cluster = make_cluster(sim)
        # Preload h01's CPU with a long-running antagonist task.
        antagonist_cpu = cluster.host("h01").cpu
        sim.spawn((lambda: (yield antagonist_cpu.run(1e3)))(), name="antagonist")
        app = make_app(sim, cluster, steps=60, n_workers=3, sync=sync)
        app.launch()
        sim.run()
        return app.metrics.jct

    assert run(sync=False) < run(sync=True)


def test_arrival_time_delays_start():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, arrival=5.0, steps=30, n_workers=3)
    app.launch()
    sim.run()
    assert app.metrics.start_time >= 5.0
    assert app.metrics.jct < app.metrics.end_time  # arrival subtracted


def test_two_concurrent_jobs_share_cluster():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim, n_hosts=5)
    apps = []
    for j in range(2):
        spec = JobSpec(f"j{j}", FAST_MODEL, n_workers=4, target_global_steps=40,
                       arrival_time=0.1 * j)
        app = DLApplication(spec, cluster, ps_host="h00",
                            worker_hosts=["h01", "h02", "h03", "h04"])
        apps.append(app)
        app.launch()
    sim.run()
    for app in apps:
        assert app.metrics.finished
        assert app.metrics.global_steps == 40


def test_ports_are_released_after_completion():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=30, n_workers=3)
    app.launch()
    sim.run()
    # all listeners freed: rebinding the same ports succeeds
    cluster.host("h00").transport.listen(app.ps_port, lambda m: None)
    for ep in app.worker_endpoints:
        ep.host.transport.listen(ep.port, lambda m: None)
    # tasks removed from hosts
    assert cluster.host("h00").tasks == []


def test_jct_scales_with_iterations():
    def run(steps):
        sim = Simulator(seed=1)
        cluster = make_cluster(sim)
        app = make_app(sim, cluster, steps=steps, n_workers=3)
        app.launch()
        sim.run()
        return app.metrics.jct

    assert run(60) > 1.8 * run(30)


def test_paper_model_update_size_on_wire():
    """The ResNet-32 job moves ~1.86 MB per update in each direction."""
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    model = get_model("resnet32_cifar10")
    app = make_app(sim, cluster, steps=6, n_workers=3, model=model)
    app.launch()
    sim.run()
    ps_nic = cluster.host("h00").nic
    expected = 2 * 3 * model.update_bytes  # 2 iterations x 3 workers
    assert ps_nic.bytes_tx == expected
    assert ps_nic.bytes_rx == expected


def test_async_single_worker_job():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=5, n_workers=1, sync=False)
    app.launch()
    sim.run()
    assert app.metrics.finished
    assert app.metrics.global_steps == 5


def test_single_iteration_job_records_no_barriers():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=3, n_workers=3)  # 1 iteration
    app.launch()
    sim.run()
    assert app.metrics.iterations_done == 1
    # barrier waits need a subsequent model update: none for 1 iteration
    assert app.metrics.barriers.n_barriers == 0


def test_async_barrier_series_still_populated():
    """Async mode records per-step model waits in the same series."""
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, steps=30, n_workers=3, sync=False)
    app.launch()
    sim.run()
    assert app.metrics.barriers.n_barriers > 0


def test_compressed_job_moves_fewer_bytes():
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    model = get_model("resnet32_cifar10")
    spec = JobSpec("j", model, n_workers=3, target_global_steps=6,
                   compression_ratio=0.25)
    app = DLApplication(spec, cluster, "h00", ["h01", "h02", "h03"])
    app.launch()
    sim.run()
    ps_tx = cluster.host("h00").nic.bytes_tx
    expected = 2 * 3 * spec.shard_bytes  # 2 iterations x 3 workers
    assert ps_tx == expected
    assert ps_tx < 2 * 3 * model.update_bytes / 3  # well under uncompressed


@pytest.mark.parametrize("sync", [True, False])
def test_running_ps_tasks_builds_no_flow_keys(record_flow_keys, sync):
    # Every PS<->worker flow is built once, when the tasks are constructed.
    sim = Simulator(seed=1)
    cluster = make_cluster(sim)
    app = make_app(sim, cluster, n_workers=3, steps=12, sync=sync)
    ps = app.ps_tasks[0]
    assert ps._model_flows == [
        FlowKey(ps.endpoint.host_id, ps.endpoint.port, w.host_id, w.port)
        for w in app.worker_endpoints
    ]
    for wk in app.workers:
        assert wk._gradient_flows == [ps._model_flows[wk.worker_index].reversed()]
    app.launch()
    built = record_flow_keys()
    sim.run()
    assert app.metrics.finished
    assert built == []
