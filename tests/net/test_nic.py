"""Unit tests for the NIC serializer."""

import pytest

from repro.errors import NetworkError
from repro.net.nic import NIC
from repro.net.qdisc import HTBQdisc, PFifo, PortFilter
from repro.sim import Simulator

from tests.net.helpers import seg


def make_nic(sim, rate=1000.0, qdisc=None):
    nic = NIC(sim, "h0", rate=rate, qdisc=qdisc)
    delivered = []
    nic.attach_link(delivered.append, latency=0.0)
    return nic, delivered


def test_nic_requires_positive_rate():
    sim = Simulator()
    with pytest.raises(NetworkError):
        NIC(sim, "h0", rate=0.0)


def test_nic_serializes_at_link_rate():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate=1000.0)
    nic.send(seg(500))
    sim.run()
    assert len(delivered) == 1
    assert sim.now == pytest.approx(0.5)  # 500 B at 1000 B/s
    assert nic.bytes_tx == 500
    assert nic.busy_time == pytest.approx(0.5)


def test_nic_back_to_back_segments():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate=1000.0)
    nic.send(seg(500))
    nic.send(seg(250))
    sim.run()
    assert len(delivered) == 2
    assert sim.now == pytest.approx(0.75)
    assert nic.segments_tx == 2


def test_nic_link_latency_applied():
    sim = Simulator()
    nic = NIC(sim, "h0", rate=1000.0)
    arrivals = []
    nic.attach_link(lambda s: arrivals.append(sim.now), latency=0.1)
    nic.send(seg(1000))
    sim.run()
    assert arrivals == [pytest.approx(1.1)]


def test_nic_on_segment_sent_callback():
    sim = Simulator()
    nic, _ = make_nic(sim)
    sent = []
    nic.on_segment_sent = lambda s: sent.append((s, sim.now))
    s = seg(1000)
    nic.send(s)
    sim.run()
    assert sent == [(s, pytest.approx(1.0))]


def test_nic_receive_counts_and_callbacks():
    sim = Simulator()
    nic, _ = make_nic(sim)
    got = []
    nic.on_receive = got.append
    s = seg(123)
    nic.receive(s)
    assert got == [s]
    assert nic.bytes_rx == 123
    assert nic.segments_rx == 1


def test_nic_drop_raises():
    sim = Simulator()
    nic, _ = make_nic(sim, qdisc=PFifo(limit=1))
    nic.send(seg(100))  # dequeued immediately into serializer
    nic.send(seg(100))  # fills the queue
    with pytest.raises(NetworkError, match="dropped"):
        nic.send(seg(100))


def test_nic_shaped_qdisc_retries():
    """With a shaped HTB class (``rate == ceil``) as the egress qdisc, the
    NIC retries when tokens refill."""
    sim = Simulator()
    q = HTBQdisc(default_classid=1)
    q.add_class(1, rate=100.0, ceil=100.0, burst=100.0, cburst=100.0)
    nic, delivered = make_nic(sim, rate=1e9, qdisc=q)
    nic.send(seg(100))
    nic.send(seg(100))
    nic.send(seg(100))
    sim.run()
    assert len(delivered) == 3
    # one burst segment at t~0, then one per second
    assert sim.now == pytest.approx(2.0, rel=1e-3)


def test_set_qdisc_migrates_backlog():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate=1000.0)
    # Queue three segments; the first enters the serializer, two remain.
    for _ in range(3):
        nic.send(seg(1000, sport=5000))
    f = PortFilter()
    f.add_match(5000, 10)
    htb = HTBQdisc(filter=f, default_classid=11)
    htb.add_class(1, rate=1000.0)
    htb.add_class(10, rate=10.0, ceil=1000.0, prio=0, parent=1)
    htb.add_class(11, rate=10.0, ceil=1000.0, prio=1, parent=1)
    nic.set_qdisc(htb)
    sim.run()
    assert len(delivered) == 3
    assert nic.bytes_tx == 3000


def test_utilization_snapshot_includes_in_progress_tx():
    sim = Simulator()
    nic, _ = make_nic(sim, rate=1000.0)
    nic.send(seg(1000))
    sim.run(until=0.5)
    snap = nic.utilization_snapshot()
    assert snap["busy_time"] == pytest.approx(0.5)
    sim.run()
    assert nic.utilization_snapshot()["busy_time"] == pytest.approx(1.0)


def test_nic_idle_when_empty():
    sim = Simulator()
    nic, delivered = make_nic(sim)
    sim.run()
    assert delivered == []
    assert nic.busy_time == 0.0
    assert len(nic.qdisc) == 0


def test_set_qdisc_rewires_drop_callback():
    """A replacement qdisc's head drops still reach the transport hook."""
    from repro.net.qdisc import HTBQdisc

    sim = Simulator()
    nic, _ = make_nic(sim, rate=1000.0)
    dropped = []
    nic.on_segment_dropped = dropped.append
    filt = PortFilter()
    htb = HTBQdisc(filter=filt, default_classid=10)
    htb.add_class(1, rate=1000.0, ceil=1000.0)
    htb.add_class(10, rate=1000.0, ceil=1000.0, parent=1)
    nic.set_qdisc(htb)
    assert htb.on_drop is not None
    first, queued = seg(100), seg(100, index=1)
    nic.send(first)   # starts serializing at once
    nic.send(queued)  # waits in class 10
    htb.del_class(10)  # ``tc class del`` head-drops the queued segment
    assert dropped == [queued]


def test_nic_counters_after_mixed_traffic():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate=1000.0)
    for size in (100, 200, 300):
        nic.send(seg(size))
    sim.run()
    assert nic.bytes_tx == 600
    assert nic.segments_tx == 3
    assert len(delivered) == 3
    assert len(nic.qdisc) == 0
