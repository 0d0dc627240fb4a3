"""Tests for the leaf-spine topology extension."""

import pytest

from repro.errors import NetworkError
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.packet import Message
from repro.net.twotier import TwoTierNetwork
from repro.sim import Simulator

from tests.net.packet_fabric import packet_fabric


def build(n_hosts=6, n_leaves=2, oversub=1.0, rate=1000.0, **kw):
    sim = Simulator(seed=1)
    net = TwoTierNetwork(
        sim, [f"h{i}" for i in range(n_hosts)], n_leaves=n_leaves,
        link=Link(rate=rate, latency=0.0), oversubscription=oversub,
        segment_bytes=100, **kw,
    )
    return sim, net


def test_validation():
    sim = Simulator()
    with pytest.raises(NetworkError):
        TwoTierNetwork(sim, ["a"], n_leaves=0)
    with pytest.raises(NetworkError):
        TwoTierNetwork(sim, ["a"], n_leaves=2)
    with pytest.raises(NetworkError):
        TwoTierNetwork(sim, ["a", "b"], n_leaves=1, oversubscription=0.5)


def test_hosts_distributed_round_robin():
    sim, net = build(n_hosts=6, n_leaves=2)
    leaf = net.leaf_of_host
    assert leaf["h0"] == leaf["h2"]
    assert leaf["h1"] == leaf["h3"]
    assert leaf["h0"] != leaf["h1"]


def test_same_leaf_delivery():
    sim, net = build()
    got = []
    net.transport("h2").listen(6000, got.append)
    net.transport("h0").send_message(
        Message(flow=FlowKey("h0", 1, "h2", 6000), size=500)
    )
    sim.run()
    assert len(got) == 1
    assert net.nic("h2").bytes_rx == 500


def test_cross_leaf_delivery_traverses_spine():
    sim, net = build()
    got = []
    net.transport("h1").listen(6000, got.append)
    net.transport("h0").send_message(
        Message(flow=FlowKey("h0", 1, "h1", 6000), size=500)
    )
    sim.run()
    assert len(got) == 1
    # cross-leaf: NIC (1 kB/s) finishes at 0.5 s; the last 100 B segment
    # then pipelines through the uplink and spine downlink (3 kB/s each:
    # 3 hosts/leaf at 1:1 oversubscription) and the destination host port
    # (1 kB/s): 0.5 + 100/3000 + 100/3000 + 100/1000.
    assert got[0].latency == pytest.approx(0.5 + 2 * (100 / 3000) + 0.1)


def test_unknown_host_rejected():
    sim, net = build()
    with pytest.raises(NetworkError):
        net.nic("nope")
    with pytest.raises(NetworkError):
        net.transport("nope")


def test_oversubscribed_uplink_is_the_bottleneck():
    """With 3:1 oversubscription, cross-leaf aggregate throughput is
    capped by the uplink, not by the host NICs."""
    def run(oversub):
        sim, net = build(n_hosts=6, n_leaves=2, oversub=oversub)
        done = []
        for i, dst in enumerate(("h1", "h3", "h5")):  # all on leaf 1
            net.transport(dst).listen(6000, lambda m: done.append(sim.now))
        for i, (src, dst) in enumerate(
            (("h0", "h1"), ("h2", "h3"), ("h4", "h5"))
        ):
            net.transport(src).send_message(
                Message(flow=FlowKey(src, 10 + i, dst, 6000), size=2000)
            )
        sim.run()
        return max(done)

    # uplink rate = host_rate*3/oversub; 6000 B total cross-leaf
    assert run(3.0) > 2.0 * run(1.0)


def test_finite_buffers_and_recovery_cross_leaf():
    """Incast over the spine with shallow buffers still delivers all."""
    sim, net = build(n_hosts=6, n_leaves=2, oversub=3.0,
                     buffer_bytes=300, rto=0.05)
    got = []
    net.transport("h1").listen(6000, lambda m: got.append(m.size))
    for i, src in enumerate(("h0", "h2", "h4")):
        net.transport(src).send_message(
            Message(flow=FlowKey(src, 20 + i, "h1", 6000), size=1000)
        )
    sim.run()
    assert sorted(got) == [1000, 1000, 1000]
    assert sum(leaf.drops for leaf in net.leaves) > 0
    assert net.nic("h1").bytes_rx == 3000


def _cross_leaf_incast():
    """Shallow-buffered incast into h1, mostly across a 3:1 uplink."""
    sim = Simulator(seed=3)
    net = TwoTierNetwork(
        sim, [f"h{i}" for i in range(6)], n_leaves=2,
        link=Link(rate=1000.0, latency=1e-3), oversubscription=3.0,
        segment_bytes=100, window_segments=4, window_jitter=0.25,
        buffer_bytes=300, rto=0.05,
    )
    deliveries = []
    net.transport("h1").listen(
        6000, lambda m: deliveries.append((sim.now, m.flow.src_host, m.size))
    )
    for i, src in enumerate(("h0", "h2", "h3", "h4", "h5")):
        for k in range(2):
            net.transport(src).send_message(
                Message(flow=FlowKey(src, 20 + i, "h1", 6000), size=700 + 100 * k)
            )
    sim.run()
    for nic in net.nics.values():
        nic.settle_rx()
    ports = [(p.host_id, p.drops, p.bytes_tx) for p in net.iter_ports()]
    return deliveries, ports, sim.steps_executed, sim.events_elided


def test_final_hop_flow_ports_match_packet_oracle():
    deliveries, ports, steps, elided = _cross_leaf_incast()
    with packet_fabric():
        ref_deliveries, ref_ports, ref_steps, ref_elided = _cross_leaf_incast()
    assert deliveries == ref_deliveries
    assert ports == ref_ports
    assert steps == ref_steps
    # sanity: drops happened, and only production elided events
    assert sum(drops for _, drops, _ in ports) > 0
    assert elided > 0 and ref_elided == 0


def test_tensorlights_tc_works_on_twotier_nic():
    """The tc facade is topology-agnostic: it binds to a NIC."""
    from repro.net.qdisc import HTBQdisc
    from repro.tensorlights.tc import Tc

    sim, net = build()
    tc = Tc(net.nic("h0"))
    tc.install_tensorlights_htb(3)
    tc.set_port_band(1, 0)
    assert isinstance(net.nic("h0").qdisc, HTBQdisc)
    got = []
    net.transport("h1").listen(6000, got.append)
    net.transport("h0").send_message(
        Message(flow=FlowKey("h0", 1, "h1", 6000), size=500)
    )
    sim.run()
    assert len(got) == 1


def test_scrape_reads_the_drops_of_every_fabric_port():
    """``switch_port_drops_total`` covers leaf uplinks and spine
    downlinks too, not just the ports toward hosts."""
    from types import SimpleNamespace

    from repro.cluster.host import Host
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.scrape import scrape_cluster

    sim, net = build(n_hosts=6, n_leaves=2, oversub=3.0,
                     buffer_bytes=300, rto=0.05)
    net.transport("h1").listen(6000, lambda m: None)
    for i, src in enumerate(("h0", "h2", "h3", "h4", "h5")):
        net.transport(src).send_message(
            Message(flow=FlowKey(src, 20 + i, "h1", 6000), size=1000)
        )
    sim.run()
    hosts = {h: Host(sim, h, cores=1, nic=net.nic(h), transport=net.transport(h))
             for h in net.host_ids}
    cluster = SimpleNamespace(sim=sim, network=net, host_ids=list(hosts),
                              host=hosts.__getitem__)
    registry = MetricsRegistry()
    scrape_cluster(registry, cluster)
    drops = {p.host_id: p.drops for p in net.iter_ports()}
    assert any(drops[h] for h in drops if h not in hosts)   # a middle hop dropped
    gauges = registry.snapshot()["gauges"]
    assert {k: v for k, v in gauges.items()
            if k.startswith("switch_port_drops_total")} == {
        f"switch_port_drops_total{{port={h}}}": n for h, n in drops.items()
    }
