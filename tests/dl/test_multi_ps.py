"""Tests for multi-PS (sharded) jobs — paper §III's 'more general case'."""

import pytest

from repro.cluster import Cluster
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.errors import PlacementError
from repro.net.link import Link
from repro.sim import Simulator

MODEL = ModelSpec("tiny", n_params=60_000, per_sample_compute=0.01,
                  ps_update_compute=0.0006)


def make(n_ps, ps_host, sync=True, steps=30, n_hosts=6):
    sim = Simulator(seed=2)
    cluster = Cluster(sim, n_hosts=n_hosts, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    spec = JobSpec("j", MODEL, n_workers=3, target_global_steps=steps,
                   n_ps=n_ps, sync=sync)
    workers = ["h03", "h04", "h05"]
    app = DLApplication(spec, cluster, ps_host=ps_host, worker_hosts=workers)
    return sim, cluster, app


def test_spec_shard_sizes():
    spec = JobSpec("j", MODEL, n_workers=3, target_global_steps=30, n_ps=4)
    assert spec.shard_bytes == -(-MODEL.update_bytes // 4)  # ceil
    assert spec.ps_update_compute_per_shard == pytest.approx(
        MODEL.ps_update_compute / 4
    )


def test_spec_rejects_zero_ps():
    with pytest.raises(Exception):
        JobSpec("j", MODEL, n_workers=3, target_global_steps=30, n_ps=0)


def test_single_host_string_expands_to_all_shards():
    sim, cluster, app = make(n_ps=3, ps_host="h00")
    assert len(app.ps_endpoints) == 3
    assert all(ep.host_id == "h00" for ep in app.ps_endpoints)
    assert len(set(app.ps_ports)) == 3  # distinct ports


def test_shards_on_distinct_hosts():
    sim, cluster, app = make(n_ps=3, ps_host=["h00", "h01", "h02"])
    assert [ep.host_id for ep in app.ps_endpoints] == ["h00", "h01", "h02"]


def test_host_count_mismatch_rejected():
    with pytest.raises(PlacementError):
        make(n_ps=3, ps_host=["h00", "h01"])


def test_ps_worker_overlap_rejected():
    with pytest.raises(PlacementError):
        make(n_ps=2, ps_host=["h00", "h03"])  # h03 is a worker host


def test_sharded_sync_job_completes():
    sim, cluster, app = make(n_ps=3, ps_host="h00", steps=30)
    app.launch()
    sim.run()
    m = app.metrics
    assert m.finished
    assert m.global_steps == 30
    assert m.iterations_done == 10


def test_sharded_job_moves_same_total_bytes():
    """n_ps shards of ~1/n_ps size each: total wire bytes are preserved."""
    totals = {}
    for n_ps in (1, 3):
        sim, cluster, app = make(n_ps=n_ps, ps_host="h00", steps=30)
        app.launch()
        sim.run()
        totals[n_ps] = cluster.host("h00").nic.bytes_tx
    # ceil() rounding makes the sharded total at most n_ps bytes bigger
    # per message.
    assert totals[3] >= totals[1]
    assert totals[3] - totals[1] <= 3 * 3 * 10 * 4  # shards x workers x iters x pad


def test_sharded_barrier_waits_recorded():
    sim, cluster, app = make(n_ps=2, ps_host="h00", steps=30)
    app.launch()
    sim.run()
    assert app.metrics.barriers.complete_barriers() == list(range(9))


def test_sharded_async_job_completes():
    sim, cluster, app = make(n_ps=2, ps_host="h00", sync=False, steps=30)
    app.launch()
    sim.run()
    assert app.metrics.finished
    assert app.metrics.global_steps == 30


def test_done_fires_after_all_shards():
    sim, cluster, app = make(n_ps=3, ps_host="h00", steps=30)
    app.launch()
    fired = []

    def watch():
        m = yield app.done
        fired.append((sim.now, m.finished))

    sim.spawn(watch(), name="watch")
    sim.run()
    assert fired and fired[0][1]


def test_ports_released_for_all_shards():
    sim, cluster, app = make(n_ps=3, ps_host="h00", steps=30)
    app.launch()
    sim.run()
    for ep in app.ps_endpoints:
        ep.host.transport.listen(ep.port, lambda m: None)  # rebindable
    assert cluster.host("h00").tasks == []


def test_tensorlights_bands_all_shard_ports():
    from repro.tensorlights import TensorLights, TLMode

    sim = Simulator(seed=2)
    cluster = Cluster(sim, n_hosts=6, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=TLMode.ONE)
    workers = ["h03", "h04", "h05"]
    apps = []
    for j in range(2):
        spec = JobSpec(f"j{j}", MODEL, n_workers=3, target_global_steps=30,
                       n_ps=2)
        app = DLApplication(spec, cluster, ps_host="h00", worker_hosts=workers)
        tl.attach(app)
        apps.append(app)
    # both shard ports of each job must map to the job's single band
    state_tc = tl._hosts["h00"].tc
    for app in apps:
        bands = {state_tc.band_of_port(p) for p in app.ps_ports}
        assert len(bands) == 1 and None not in bands
    assert state_tc.band_of_port(apps[0].ps_ports[0]) != state_tc.band_of_port(
        apps[1].ps_ports[0]
    )
