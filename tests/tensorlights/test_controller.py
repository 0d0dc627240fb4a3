"""Unit/integration tests for the TensorLights controller."""

import pytest

from repro.cluster import Cluster
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.errors import ConfigError
from repro.net.link import Link
from repro.net.qdisc import HTBQdisc, PFifo
from repro.sim import Simulator
from repro.tensorlights import TensorLights, TLMode

FAST_MODEL = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.01)


def contended_hosts(tl):
    """Hosts under TensorLights control: two or more attached jobs."""
    return sorted(h for h, s in tl._hosts.items() if len(s.apps) >= 2)


def setup(n_jobs=3, n_hosts=5, ps_host="h00", mode=TLMode.ONE, interval=1.0,
          max_bands=6, steps=30, launch=True):
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=n_hosts, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=mode, interval=interval, max_bands=max_bands)
    apps = []
    workers = [h for h in cluster.host_ids if h != ps_host][: 4]
    for j in range(n_jobs):
        spec = JobSpec(f"j{j}", FAST_MODEL, n_workers=len(workers),
                       target_global_steps=steps, arrival_time=0.01 * j)
        app = DLApplication(spec, cluster, ps_host=ps_host, worker_hosts=workers)
        apps.append(app)
        tl.attach(app)
        if launch:
            app.launch()
    return sim, cluster, tl, apps


def test_invalid_config():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2)
    with pytest.raises(ConfigError):
        TensorLights(cluster, interval=0.0)
    with pytest.raises(ConfigError):
        TensorLights(cluster, max_bands=0)


def test_single_job_host_left_at_fifo():
    sim, cluster, tl, apps = setup(n_jobs=1, launch=False)
    assert isinstance(cluster.host("h00").nic.qdisc, PFifo)
    assert contended_hosts(tl) == []
    assert tl.band_of(apps[0]) is None


def test_contended_host_gets_htb():
    sim, cluster, tl, apps = setup(n_jobs=3, launch=False)
    assert isinstance(cluster.host("h00").nic.qdisc, HTBQdisc)
    assert contended_hosts(tl) == ["h00"]


def test_distinct_bands_when_jobs_fit():
    sim, cluster, tl, apps = setup(n_jobs=3, launch=False)
    bands = [tl.band_of(a) for a in apps]
    assert sorted(bands) == [0, 1, 2]


def test_arrival_order_gives_first_job_top_priority():
    sim, cluster, tl, apps = setup(n_jobs=3, launch=False)
    assert tl.band_of(apps[0]) == 0  # earliest arrival_time


def test_band_sharing_when_jobs_exceed_bands():
    sim, cluster, tl, apps = setup(n_jobs=5, max_bands=2, launch=False)
    bands = [tl.band_of(a) for a in apps]
    assert set(bands) == {0, 1}


def test_double_attach_rejected():
    sim, cluster, tl, apps = setup(n_jobs=1, launch=False)
    with pytest.raises(ConfigError):
        tl.attach(apps[0])


def test_detach_on_completion_reverts_to_fifo():
    sim, cluster, tl, apps = setup(n_jobs=2, steps=30)
    sim.run()
    for app in apps:
        assert app.metrics.finished
    # both jobs done -> detached -> host back to FIFO
    assert isinstance(cluster.host("h00").nic.qdisc, PFifo)
    assert contended_hosts(tl) == []


def test_departure_rebands_remaining_jobs():
    sim, cluster, tl, apps = setup(n_jobs=3, steps=30, launch=False)
    apps[0].launch()  # only job 0 runs; 1 and 2 stay attached
    sim.run()
    assert apps[0].metrics.finished
    bands = [tl.band_of(a) for a in apps[1:]]
    assert sorted(bands) == [0, 1]  # re-ranked after departure


def test_manual_detach_idempotent():
    sim, cluster, tl, apps = setup(n_jobs=2, launch=False)
    tl.detach(apps[0])
    tl.detach(apps[0])  # no-op
    assert tl.band_of(apps[1]) is None  # single job left -> FIFO


def test_rr_mode_rotates_assignment():
    sim, cluster, tl, apps = setup(n_jobs=3, mode=TLMode.RR, interval=0.5,
                                   steps=3000, launch=False)
    before = [tl.band_of(a) for a in apps]
    sim.run(until=0.6)  # one rotation
    after = [tl.band_of(a) for a in apps]
    assert sorted(before) == sorted(after) == [0, 1, 2]
    assert before != after
    # rotation is cyclic: rank shifts by one
    assert after == [(b + 1) % 3 for b in before]


def test_rr_rotation_covers_all_ranks():
    sim, cluster, tl, apps = setup(n_jobs=3, mode=TLMode.RR, interval=0.5,
                                   steps=3000, launch=False)
    seen = {a.spec.job_id: set() for a in apps}
    for k in range(6):
        sim.run(until=0.6 + 0.5 * k)
        for a in apps:
            seen[a.spec.job_id].add(tl.band_of(a))
    assert all(s == {0, 1, 2} for s in seen.values())


def test_one_mode_assignment_is_static():
    sim, cluster, tl, apps = setup(n_jobs=3, mode=TLMode.ONE, steps=6000)
    before = [tl.band_of(a) for a in apps]
    sim.run(until=1.0)
    assert [tl.band_of(a) for a in apps] == before


def test_independent_hosts_configured_independently():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=7, link=Link(rate=1.25e9), segment_bytes=64 * 1024)
    tl = TensorLights(cluster)
    workers = ["h02", "h03", "h04", "h05"]
    for j, ps in enumerate(["h00", "h00", "h01"]):
        spec = JobSpec(f"j{j}", FAST_MODEL, n_workers=4, target_global_steps=40)
        tl.attach(DLApplication(spec, cluster, ps_host=ps, worker_hosts=workers))
    assert contended_hosts(tl) == ["h00"]
    assert isinstance(cluster.host("h01").nic.qdisc, PFifo)


def test_render_commands_lists_configured_hosts():
    sim, cluster, tl, apps = setup(n_jobs=3, launch=False)
    cmds = tl.render_commands()
    assert any("qdisc replace dev h00" in c for c in cmds)
    assert sum("filter add" in c for c in cmds) == 3


def test_reconfiguration_counter_increases():
    sim, cluster, tl, apps = setup(n_jobs=3, launch=False)
    assert tl.reconfigurations > 0
