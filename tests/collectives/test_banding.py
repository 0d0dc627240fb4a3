"""TensorLights banding of all-reduce jobs via port-range classification."""

import pytest

from repro.cluster import Cluster
from repro.collectives import AllReduceApplication
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.net.link import Link
from repro.net.qdisc import HTBQdisc, PFifo
from repro.sim import Simulator
from repro.tensorlights import TensorLights, TLMode

FAST_MODEL = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.005)


def contended_hosts(tl):
    """Hosts under TensorLights control: two or more attached jobs."""
    return sorted(h for h, s in tl._hosts.items() if len(s.apps) >= 2)


def ring_app(cluster, job_id, hosts, iterations=3, channels=1):
    spec = JobSpec(job_id, FAST_MODEL, n_workers=len(hosts),
                   target_global_steps=iterations * len(hosts),
                   compute_jitter_sigma=0.0, architecture="allreduce")
    return AllReduceApplication(spec, cluster, hosts, channels=channels)


def setup(n_rings=2, n_hosts=4, mode=TLMode.ONE, channels=1):
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=n_hosts, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=mode, interval=1.0)
    apps = []
    for j in range(n_rings):
        app = ring_app(cluster, f"ring{j}", cluster.host_ids, channels=channels)
        tl.attach(app)
        apps.append(app)
    return sim, cluster, tl, apps


def test_single_ring_leaves_hosts_at_fifo():
    sim, cluster, tl, apps = setup(n_rings=1)
    # one job per host: no contention anywhere, the paper's policy applies
    assert contended_hosts(tl) == []
    for hid in cluster.host_ids:
        assert isinstance(cluster.host(hid).nic.qdisc, PFifo)


def test_contending_rings_banded_on_every_member_host():
    sim, cluster, tl, apps = setup(n_rings=2)
    # rings overlap on all hosts -> every member host is controlled
    assert contended_hosts(tl) == cluster.host_ids
    for hid in cluster.host_ids:
        assert isinstance(cluster.host(hid).nic.qdisc, HTBQdisc)
        bands = [tl.band_of(a, host_id=hid) for a in apps]
        assert None not in bands
        assert len(set(bands)) == len(bands)  # distinct bands per host


def test_range_filters_cover_all_channels():
    sim, cluster, tl, apps = setup(n_rings=2, channels=2)
    app = apps[0]
    for ep in app.member_endpoints:
        band = tl.band_of(app, host_id=ep.host_id)
        assert band is not None
        state = tl._hosts[ep.host_id]
        # every port of the member's range resolves to the job's band
        for port in ep.ports:
            assert state.tc.band_of_port(port) == band
        assert (ep.port_lo, ep.port_hi) in state.tc._range_to_band


def test_render_commands_emit_flower_range_filters():
    sim, cluster, tl, apps = setup(n_rings=2, channels=2)
    commands = tl.render_commands()
    range_lines = [c for c in commands if "flower" in c]
    assert range_lines, commands
    for line in range_lines:
        assert "src_port" in line and "-" in line.split("src_port")[1]


def test_detach_on_completion_removes_ranges():
    sim, cluster, tl, apps = setup(n_rings=2)
    for app in apps:
        app.launch()
    sim.run()
    assert all(a.done.fired for a in apps)
    assert contended_hosts(tl) == []
    assert all(not s.ranges for s in tl._hosts.values())
    for hid in cluster.host_ids:
        assert isinstance(cluster.host(hid).nic.qdisc, PFifo)


def test_mixed_ps_and_ring_share_a_host_and_get_distinct_bands():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=5, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=TLMode.ONE)
    ring = ring_app(cluster, "ring0", cluster.host_ids[:4])
    ps_spec = JobSpec("ps0", FAST_MODEL, n_workers=4, target_global_steps=12,
                      compute_jitter_sigma=0.0)
    ps_app = DLApplication(ps_spec, cluster, ps_host=cluster.host_ids[0],
                           worker_hosts=cluster.host_ids[1:])
    tl.attach(ring)
    tl.attach(ps_app)
    # both jobs send from host 0 (PS port + ring member range)
    shared = cluster.host_ids[0]
    assert contended_hosts(tl) == [shared]
    ring_band = tl.band_of(ring, host_id=shared)
    ps_band = tl.band_of(ps_app, host_id=shared)
    assert ring_band is not None and ps_band is not None
    assert ring_band != ps_band
    ring.launch()
    ps_app.launch()
    sim.run()
    assert ring.metrics.finished and ps_app.metrics.finished


def test_tls_rr_rotates_ring_bands():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=4, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=TLMode.RR, interval=1.0)
    # long enough (~120 x 0.02 s compute) to straddle a rotation at t=1.0
    apps = [ring_app(cluster, f"ring{j}", cluster.host_ids, iterations=120)
            for j in range(2)]
    for app in apps:
        tl.attach(app)
    host = cluster.host_ids[0]
    before = [tl.band_of(a, host_id=host) for a in apps]
    for app in apps:
        app.launch()
    sim.run(until=1.5)  # past one rotation interval
    assert not any(a.done.fired for a in apps)  # still contending
    after = [tl.band_of(a, host_id=host) for a in apps]
    assert before != after  # rotated by one position
    sim.run()
    assert all(a.metrics.finished for a in apps)
