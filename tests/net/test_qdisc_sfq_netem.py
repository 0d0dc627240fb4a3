"""Unit tests for the netem qdisc."""

import pytest

from repro.errors import QdiscError
from repro.net.qdisc import NetemQdisc

from tests.net.helpers import seg


# ---------------------------------------------------------------- netem


def test_netem_validation():
    with pytest.raises(QdiscError):
        NetemQdisc(delay=-1.0)
    with pytest.raises(QdiscError):
        NetemQdisc(loss=1.0)


def test_netem_zero_delay_passes_through():
    q = NetemQdisc()
    s = seg(10)
    q.enqueue(s, 0.0)
    assert q.dequeue(0.0) is s


def test_netem_delays_eligibility():
    q = NetemQdisc(delay=0.5)
    s = seg(10)
    q.enqueue(s, 1.0)
    assert q.dequeue(1.0) is None
    assert q.next_ready_time(1.0) == pytest.approx(1.5)
    assert q.dequeue(1.5) is s


def test_netem_not_work_conserving():
    assert not NetemQdisc().work_conserving


def test_netem_loss_drops_fraction():
    q = NetemQdisc(loss=0.5, seed=1)
    accepted = sum(q.enqueue(seg(10), 0.0) for _ in range(400))
    assert 120 < accepted < 280  # ~50%
    assert q.lost == 400 - accepted


def test_netem_jitter_varies_delay():
    q = NetemQdisc(delay=1.0, jitter=0.2, seed=3)
    for _ in range(10):
        q.enqueue(seg(10), 0.0)
    ready_times = sorted(t for t, _, _ in q._staged)
    assert ready_times[0] != ready_times[-1]


def test_netem_drain_all_ignores_delay():
    q = NetemQdisc(delay=10.0)
    q.enqueue(seg(10), 0.0)
    q.enqueue(seg(20), 0.0)
    out = q.drain_all(0.0)
    assert len(out) == 2
    assert len(q) == 0 and q.backlog_bytes == 0


def test_netem_in_nic_adds_latency():
    """End-to-end: a netem egress qdisc delays delivery."""
    from repro.net.nic import NIC
    from repro.sim import Simulator

    sim = Simulator()
    nic = NIC(sim, "h0", rate=1000.0, qdisc=NetemQdisc(delay=2.0))
    arrivals = []
    nic.attach_link(lambda s: arrivals.append(sim.now), latency=0.0)
    nic.send(seg(1000))
    sim.run()
    assert arrivals == [pytest.approx(3.0)]  # 2 s netem + 1 s serialization
