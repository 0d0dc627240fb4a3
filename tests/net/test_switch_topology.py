"""Unit tests for the switch, links and star topology wiring."""

import pytest

from repro.errors import NetworkError
from repro.net import Link, StarNetwork, Switch
from repro.net.addressing import FlowKey
from repro.net.packet import Message
from repro.net.switch import OutputPort, VirtualOutputPort
from repro.sim import Simulator

from tests.net.helpers import seg


# ---------------------------------------------------------------- Link


def test_link_validation():
    with pytest.raises(NetworkError):
        Link(rate=0.0)
    with pytest.raises(NetworkError):
        Link(rate=1.0, latency=-1.0)


# ---------------------------------------------------------------- Switch


def test_switch_routes_to_destination_port():
    sim = Simulator()
    sw = Switch(sim)
    got_a, got_b = [], []
    sw.attach("a", Link(rate=1000.0, latency=0.0), got_a.append)
    sw.attach("b", Link(rate=1000.0, latency=0.0), got_b.append)
    sw.ingress(seg(100, src="a", dst="b"))
    sim.run()
    assert len(got_b) == 1 and not got_a
    assert sw.segments_forwarded == 1


def test_switch_unknown_destination_raises():
    sim = Simulator()
    sw = Switch(sim)
    sw.attach("a", Link(rate=1000.0), lambda s: None)
    with pytest.raises(NetworkError, match="no port"):
        sw.ingress(seg(100, src="a", dst="zz"))


def test_switch_duplicate_attach_raises():
    sim = Simulator()
    sw = Switch(sim)
    sw.attach("a", Link(rate=1000.0), lambda s: None)
    with pytest.raises(NetworkError):
        sw.attach("a", Link(rate=1000.0), lambda s: None)


#: Host-facing ports run at flow granularity; the event-driven serializer
#: stays for two-tier middle hops.  Each port test below runs against
#: both in one test body, so the test ids stay stable.
PORT_CLASSES = (OutputPort, VirtualOutputPort)


def _port(sim, port_cls, host_id, rate, deliver):
    return port_cls(sim, host_id, Link(rate=rate, latency=0.0), deliver)


def test_switch_port_serializes_at_link_rate():
    """Two segments to the same host arrive separated by tx time."""
    for port_cls in PORT_CLASSES:
        sim = Simulator()
        arrivals = []
        port = _port(sim, port_cls, "b", 1000.0, lambda s: arrivals.append(sim.now))
        port.enqueue(seg(500, dst="b"))
        port.enqueue(seg(500, dst="b"))
        sim.run()
        assert arrivals == [pytest.approx(0.5), pytest.approx(1.0)], port_cls


def test_switch_ports_are_independent():
    """Congestion toward one host does not delay another."""
    for port_cls in PORT_CLASSES:
        sim = Simulator()
        t_b, t_c = [], []
        b = _port(sim, port_cls, "b", 1000.0, lambda s: t_b.append(sim.now))
        c = _port(sim, port_cls, "c", 1000.0, lambda s: t_c.append(sim.now))
        for _ in range(5):
            b.enqueue(seg(1000, dst="b"))
        c.enqueue(seg(1000, dst="c"))
        sim.run()
        assert t_c == [pytest.approx(1.0)], port_cls
        assert t_b[-1] == pytest.approx(5.0), port_cls


def test_output_port_backlog_stats():
    for port_cls in PORT_CLASSES:
        sim = Simulator()
        port = _port(sim, port_cls, "b", 1.0, lambda s: None)
        for _ in range(3):
            port.enqueue(seg(100, dst="b"))
        assert port.backlog == 2, port_cls  # one in the serializer
        assert port.max_backlog >= 2, port_cls


def test_port_tail_drops_when_buffer_full():
    for port_cls in PORT_CLASSES:
        sim = Simulator()
        dropped = []
        port = port_cls(sim, "b", Link(rate=1.0, latency=0.0), lambda s: None,
                        buffer_bytes=250, on_drop=dropped.append)
        segs = [seg(100, dst="b") for _ in range(4)]
        for s in segs:
            port.enqueue(s)
        # one in service, two queued (200 B), the fourth overflows 250 B
        assert dropped == [segs[3]], port_cls
        assert (port.drops, port.dropped_bytes) == (1, 100), port_cls


# ---------------------------------------------------------------- StarNetwork


def test_star_network_builds_all_hosts():
    sim = Simulator()
    net = StarNetwork(sim, [f"h{i}" for i in range(5)])
    assert len(net.switch._ports) == 5
    assert len(net.host_ids) == 5
    assert net.nic("h0").host_id == "h0"


def test_star_network_duplicate_host_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        StarNetwork(sim, ["a", "a"])


def test_star_network_unknown_host_lookup():
    sim = Simulator()
    net = StarNetwork(sim, ["a"])
    with pytest.raises(NetworkError):
        net.nic("nope")
    with pytest.raises(NetworkError):
        net.transport("nope")


def test_star_end_to_end_message():
    sim = Simulator()
    net = StarNetwork(sim, ["a", "b"], link=Link(rate=1000.0, latency=0.01))
    got = []
    net.transport("b").listen(6000, got.append)
    msg = Message(flow=FlowKey("a", 5000, "b", 6000), size=2500)
    net.transport("a").send_message(msg)
    sim.run()
    assert got == [msg]
    # 2500 B through two serializations (NIC + switch port) at 1 kB/s plus
    # two latency hops; store-and-forward pipelining applies per segment.
    assert msg.delivered_at > 2.5
    assert msg.latency == msg.delivered_at


def test_star_bidirectional_traffic():
    sim = Simulator()
    net = StarNetwork(sim, ["a", "b"], link=Link(rate=1000.0, latency=0.0))
    got_a, got_b = [], []
    net.transport("a").listen(5000, got_a.append)
    net.transport("b").listen(6000, got_b.append)
    net.transport("a").send_message(Message(flow=FlowKey("a", 5000, "b", 6000), size=100))
    net.transport("b").send_message(Message(flow=FlowKey("b", 6000, "a", 5000), size=100))
    sim.run()
    assert len(got_a) == 1 and len(got_b) == 1
