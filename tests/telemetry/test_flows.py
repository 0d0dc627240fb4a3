"""Tests for the flow completion-time collector."""

import pytest

from repro.cluster import Cluster
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.errors import ConfigError
from repro.net import Link, StarNetwork
from repro.net.addressing import FlowKey
from repro.net.packet import Message
from repro.sim import Simulator
from repro.telemetry.flows import FlowCollector, FlowRecord

FAST = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.01)


def test_record_fields_and_fct():
    r = FlowRecord(kind="k", job="j", size=10, created_at=1.0, delivered_at=3.5)
    assert r.fct == 2.5


def test_install_wraps_listeners():
    sim = Simulator()
    net = StarNetwork(sim, ["a", "b"], link=Link(rate=1000.0, latency=0.0))
    collector = FlowCollector.install(net)
    got = []
    net.transport("b").listen(6000, got.append)
    net.transport("a").send_message(
        Message(flow=FlowKey("a", 1, "b", 6000), size=500, kind="data")
    )
    sim.run()
    assert len(got) == 1  # original callback still fires
    assert len(collector) == 1
    [rec] = collector.records
    assert rec.kind == "data"
    assert rec.fct == pytest.approx(got[0].latency)


def test_collector_with_dl_application():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=4, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    collector = FlowCollector.install(cluster.network)
    spec = JobSpec("j0", FAST, n_workers=3, target_global_steps=30)
    app = DLApplication(spec, cluster, "h00", ["h01", "h02", "h03"])
    app.launch()
    sim.run()
    # 10 iterations x 3 workers in each direction
    assert collector.fcts("model_update").size == 30
    assert collector.fcts("gradient_update").size == 30
    assert collector.fcts("model_update", job="j0").size == 30
    assert collector.fcts("model_update", job="nope").size == 0
    assert (collector.fcts() > 0).all()


def test_percentile_and_tail_ratio():
    c = FlowCollector()
    for i, fct in enumerate([1.0, 1.0, 1.0, 10.0]):
        c.records.append(FlowRecord("k", "j", 1, 0.0, fct))
    assert c.percentile("k", 50) == pytest.approx(1.0)
    assert c.tail_ratio("k", p=100) == pytest.approx(10.0)


def test_queries_on_empty_raise():
    c = FlowCollector()
    with pytest.raises(ConfigError):
        c.percentile("k", 50)
    with pytest.raises(ConfigError):
        c.tail_ratio("k")


def test_by_job_partitions():
    c = FlowCollector()
    c.records.append(FlowRecord("k", "a", 1, 0.0, 1.0))
    c.records.append(FlowRecord("k", "b", 1, 0.0, 2.0))
    c.records.append(FlowRecord("k", "a", 1, 0.0, 3.0))
    assert c.fcts("k", job="a").tolist() == [1.0, 3.0]
    assert c.fcts("k", job="b").tolist() == [2.0]
    assert c.fcts("k").size == 3


def test_install_taps_hosts_attached_later():
    """The collector must see transports created *after* install.

    Per-transport ``on_deliver`` chaining only covers the transports that
    exist at install time; the network-level delivery tap also applies to
    hosts attached afterwards (the failover-respawn shape).
    """
    sim = Simulator()
    net = StarNetwork(sim, ["a", "b"], link=Link(rate=1000.0, latency=0.0))
    collector = FlowCollector.install(net)
    net.attach_host("c")  # late arrival, after install
    got = []
    net.transport("c").listen(6000, got.append)
    net.transport("a").send_message(
        Message(flow=FlowKey("a", 1, "c", 6000), size=500, kind="data")
    )
    sim.run()
    assert len(got) == 1
    assert len(collector) == 1
    assert collector.records[0].kind == "data"


def test_collector_sees_traffic_across_a_ps_crash():
    """Flows delivered after a PS crash/recovery still hit the collector."""
    from repro.experiments import ExperimentConfig, Scenario
    from repro.experiments.runtime import materialize
    from repro.faults import FaultPlan, PSCrash

    cfg = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)
    plan = FaultPlan(
        faults=(PSCrash(job="job00", at=0.2, recover_after=0.2),),
    )
    runtime = materialize(Scenario(config=cfg, faults=plan))
    collector = FlowCollector.install(runtime.cluster.network)
    result = runtime.run()
    # updates flowed both before the crash and after the restart
    assert result.fault_events
    assert collector.fcts("model_update", job="job00").size > 0
    assert collector.fcts("gradient_update", job="job00").size > 0
