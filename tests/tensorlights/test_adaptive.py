"""Tests for the adaptive (contention-triggered) TensorLights controller."""

import pytest

from repro.cluster import Cluster
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.errors import ConfigError
from repro.net.link import Link
from repro.net.qdisc import HTBQdisc, PFifo
from repro.sim import Simulator
from repro.tensorlights import AdaptiveTensorLights, TLMode

HEAVY_MODEL = ModelSpec("heavy", n_params=2_000_000, per_sample_compute=0.005)
LIGHT_MODEL = ModelSpec("light", n_params=10_000, per_sample_compute=0.05)


def build(model, n_jobs=4, link_rate=0.3e9, check_interval=0.2, steps=20):
    sim = Simulator(seed=4)
    cluster = Cluster(sim, n_hosts=7, link=Link(rate=link_rate),
                      segment_bytes=64 * 1024, window_jitter=0.5)
    tl = AdaptiveTensorLights(cluster, mode=TLMode.ONE,
                              check_interval=check_interval)
    workers = [f"h{i:02d}" for i in range(1, 7)]
    apps = []
    for j in range(n_jobs):
        spec = JobSpec(f"j{j}", model, n_workers=6,
                       target_global_steps=steps * 6)
        app = DLApplication(spec, cluster, ps_host="h00", worker_hosts=workers)
        tl.attach(app)
        apps.append(app)
    return sim, cluster, tl, apps


def test_config_validation():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2)
    with pytest.raises(ConfigError):
        AdaptiveTensorLights(cluster, check_interval=0.0)
    with pytest.raises(ConfigError):
        AdaptiveTensorLights(cluster, enable_threshold=0.3,
                             disable_threshold=0.5)


def test_starts_at_fifo_despite_colocation():
    sim, cluster, tl, apps = build(HEAVY_MODEL)
    # Colocated but not yet congested: FIFO stays.
    assert isinstance(cluster.host("h00").nic.qdisc, PFifo)
    assert not tl._engaged.get("h00", False)


def test_engages_under_contention():
    sim, cluster, tl, apps = build(HEAVY_MODEL)
    for app in apps:
        app.launch()
    engaged_qdiscs = []

    def probe():
        from repro.sim.process import Timeout

        while any(not a.metrics.finished for a in apps):
            yield Timeout(0.2)
            engaged_qdiscs.append(
                (tl._engaged.get("h00", False),
                 type(cluster.host("h00").nic.qdisc).__name__)
            )

    sim.spawn(probe(), name="probe")
    sim.run()
    assert tl.engage_events >= 1
    assert any(e and q == "HTBQdisc" for e, q in engaged_qdiscs)
    assert all(a.metrics.finished for a in apps)


def test_never_engages_without_contention():
    """Light traffic on a fast link: the NIC never saturates."""
    sim, cluster, tl, apps = build(LIGHT_MODEL, link_rate=1.25e9)
    for app in apps:
        app.launch()
    sim.run()
    assert tl.engage_events == 0
    assert isinstance(cluster.host("h00").nic.qdisc, PFifo)


def test_disengages_when_contention_subsides():
    sim, cluster, tl, apps = build(HEAVY_MODEL)
    for app in apps:
        app.launch()
    sim.run()
    # after completion, either disengaged explicitly or removed via detach
    assert isinstance(cluster.host("h00").nic.qdisc, PFifo)
