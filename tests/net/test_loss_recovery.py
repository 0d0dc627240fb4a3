"""Tests for switch buffer limits, drops, RTO retransmission and AIMD."""

import pytest

from repro.net import Link, StarNetwork
from repro.net.addressing import FlowKey
from repro.net.packet import Message
from repro.sim import Simulator
from tests.net.helpers import transport_state


def lossy_net(buffer_bytes, rto=0.1, rate=1000.0, segment_bytes=100,
              window=4, hosts=("a", "b", "c")):
    sim = Simulator(seed=1)
    net = StarNetwork(
        sim, hosts, link=Link(rate=rate, latency=0.0),
        segment_bytes=segment_bytes, window_segments=window,
        switch_buffer_bytes=buffer_bytes, rto=rto,
    )
    return sim, net


def test_no_drops_with_infinite_buffer():
    sim, net = lossy_net(buffer_bytes=None)
    net.transport("b").listen(6000, lambda m: None)
    net.transport("a").send_message(Message(flow=FlowKey("a", 1, "b", 6000), size=2000))
    sim.run()
    assert net.switch.total_drops == 0
    assert net.transport("a").segments_lost == 0


def _two_into_one(buffer_bytes, rto):
    """Two senders converge on b's egress port: sum of input rates (2x)
    exceeds the port rate (1x), so a shallow buffer must overflow."""
    sim, net = lossy_net(buffer_bytes=buffer_bytes, rto=rto)
    got = []
    net.transport("b").listen(6000, got.append)
    net.transport("a").send_message(Message(flow=FlowKey("a", 1, "b", 6000), size=2000))
    net.transport("c").send_message(Message(flow=FlowKey("c", 2, "b", 6000), size=2000))
    return sim, net, got


def test_overflow_drops_and_counts():
    sim, net, got = _two_into_one(buffer_bytes=200, rto=0.05)
    sim.run()
    assert net.switch.total_drops > 0
    lost = net.transport("a").segments_lost + net.transport("c").segments_lost
    assert lost == net.switch.total_drops


def test_message_still_fully_delivered_despite_drops():
    """Conservation under loss: RTO retransmission completes the message."""
    sim, net, got = _two_into_one(buffer_bytes=200, rto=0.05)
    sim.run()
    assert sorted(m.size for m in got) == [2000, 2000]
    assert net.nic("b").bytes_rx == 4000
    retx = (net.transport("a").segments_retransmitted
            + net.transport("c").segments_retransmitted)
    assert retx >= 1


def test_losses_never_beat_the_ideal_schedule():
    """With drops, completion is never earlier than lossless serialization
    (4000 B through a 1000 B/s port = 4 s), and everything is delivered.
    (RTO stalls can overlap useful serialization, so end time is not
    monotone in RTO — only the lower bound is a sound invariant.)"""
    for rto in (0.05, 0.5):
        sim, net, got = _two_into_one(buffer_bytes=200, rto=rto)
        sim.run()
        lost = net.transport("a").segments_lost + net.transport("c").segments_lost
        assert lost > 0
        assert net.nic("b").bytes_rx == 4000
        assert sim.now >= 4.0 - 1e-9


def test_aimd_window_halves_on_loss():
    from repro.net.transport import _SendState

    s = _SendState(window=8)
    s.on_loss()
    assert s.window == 4.0
    s.on_loss()
    s.on_loss()
    s.on_loss()
    assert s.window == 1.0  # floor at 1
    s.on_loss()
    assert s.window == 1.0


def test_aimd_additive_increase_caps_at_base():
    from repro.net.transport import _SendState

    s = _SendState(window=4)
    s.on_loss()  # 2.0
    for _ in range(100):
        s.on_progress()
    assert s.window == 4.0


def test_slow_start_exits_into_congestion_avoidance():
    """Below ssthresh growth is +1/segment; after a loss resets ssthresh,
    growth switches to +1/window (congestion avoidance)."""
    from repro.net.transport import _SendState

    s = _SendState(window=8, slow_start=True)
    assert s.window == 1.0 and s.ssthresh == 8.0
    s.on_progress()
    assert s.window == 2.0  # exponential phase: +1 per served segment
    s.on_progress()
    assert s.window == 3.0
    s.on_loss()
    assert s.window == 1.5 and s.ssthresh == 1.5  # MD + slow-start exit
    s.on_progress()
    assert s.window == pytest.approx(1.5 + 1.0 / 1.5)  # now additive


def test_on_loss_tracks_ssthresh():
    from repro.net.transport import _SendState

    s = _SendState(window=8)
    assert s.ssthresh == 0.0  # no slow start: already past threshold
    s.on_loss()
    assert s.window == 4.0 and s.ssthresh == 4.0
    s.on_loss()
    assert s.window == 2.0 and s.ssthresh == 2.0


def test_local_drop_releases_window_slot():
    """An egress (netem) drop must free its window slot; otherwise the
    flow wedges once ``window`` drops are in flight.  Full delivery of a
    many-segment message through a very lossy egress proves the release."""
    from repro.net.qdisc.netem import NetemQdisc

    sim, net = lossy_net(buffer_bytes=None, rto=0.05)
    nic = net.nic("a")
    nic.loss_tolerant = True
    nic.set_qdisc(NetemQdisc(loss=0.4, seed=3))
    got = []
    net.transport("b").listen(6000, got.append)
    net.transport("a").send_message(
        Message(flow=FlowKey("a", 1, "b", 6000), size=2000)
    )
    sim.run()
    assert [m.size for m in got] == [2000]
    tp = net.transport("a")
    assert tp.segments_lost > 0          # the netem loss actually bit
    assert tp.segments_retransmitted >= tp.segments_lost
    assert transport_state(net) == []    # every window slot was released


def test_local_head_drop_recovers_via_transport():
    """End to end: ``tc class del`` head-drops a class's queued segments,
    the transport releases their window slots, retransmits them through
    the default class, and the message is still delivered in full."""
    from repro.net.qdisc import HTBQdisc, PortFilter

    sim, net = lossy_net(buffer_bytes=None, rto=0.05, window=8)
    filt = PortFilter()
    filt.add_match(1, 10)
    htb = HTBQdisc(filter=filt, default_classid=20)
    htb.add_class(1, rate=1000.0, ceil=1000.0)
    htb.add_class(10, rate=1000.0, ceil=1000.0, parent=1)
    htb.add_class(20, rate=1000.0, ceil=1000.0, parent=1)
    net.nic("a").set_qdisc(htb)
    got = []
    net.transport("b").listen(6000, got.append)
    net.transport("a").send_message(
        Message(flow=FlowKey("a", 1, "b", 6000), size=5000)
    )
    sim.schedule(0.5, htb.del_class, (10,))
    sim.run()
    assert [m.size for m in got] == [5000]
    assert net.nic("b").bytes_rx == 5000
    assert htb.drops > 0
    tp = net.transport("a")
    assert tp.segments_retransmitted >= htb.drops
    assert transport_state(net) == []


def test_egress_drop_raises_without_loss_tolerance():
    """Default NICs still fail loudly on enqueue drops (config bugs must
    not silently become packet loss)."""
    from repro.errors import NetworkError
    from repro.net.qdisc.netem import NetemQdisc

    sim, net = lossy_net(buffer_bytes=None)
    net.nic("a").set_qdisc(NetemQdisc(loss=0.999, seed=1))
    net.transport("b").listen(6000, lambda m: None)
    with pytest.raises(NetworkError):
        net.transport("a").send_message(
            Message(flow=FlowKey("a", 1, "b", 6000), size=2000)
        )
        sim.run()


def test_incast_many_senders_converge():
    """A 4-into-1 incast with a shallow buffer still delivers everything."""
    hosts = ("sink", "s1", "s2", "s3", "s4")
    sim, net = lossy_net(buffer_bytes=300, rto=0.05, hosts=hosts)
    got = []
    net.transport("sink").listen(6000, lambda m: got.append(m.size))
    for i, h in enumerate(hosts[1:]):
        net.transport(h).send_message(
            Message(flow=FlowKey(h, 100 + i, "sink", 6000), size=1500)
        )
    sim.run()
    assert sorted(got) == [1500] * 4
    assert net.switch.total_drops > 0  # the incast actually overflowed


def test_retransmission_after_flow_state_cleanup():
    """A drop whose flow has drained at the sender resurrects the flow."""
    sim, net = lossy_net(buffer_bytes=100, rto=0.5)
    got = []
    net.transport("b").listen(6000, got.append)
    # window 4 >= message segments: sender drains before the drop's RTO
    net.transport("a").send_message(Message(flow=FlowKey("a", 1, "b", 6000), size=300))
    sim.run()
    assert len(got) == 1
    assert got[0].size == 300


def test_port_drop_counter_per_port():
    sim, net, got = _two_into_one(buffer_bytes=200, rto=0.05)
    sim.run()
    assert net.switch.port("b").drops > 0
    assert net.switch.port("a").drops == 0
    assert net.switch.port("c").drops == 0


from hypothesis import given, settings, strategies as st


@settings(max_examples=15, deadline=None)
@given(
    buffer_bytes=st.sampled_from([150, 250, 400, 1000]),
    sizes=st.lists(st.integers(min_value=50, max_value=3000),
                   min_size=2, max_size=6),
    rto=st.sampled_from([0.02, 0.1]),
)
def test_property_conservation_under_arbitrary_loss(buffer_bytes, sizes, rto):
    """No matter how shallow the buffers, every message is delivered in
    full exactly once (the RTO path never loses or duplicates bytes)."""
    sim = Simulator(seed=1)
    hosts = ["sink"] + [f"s{i}" for i in range(len(sizes))]
    net = StarNetwork(
        sim, hosts, link=Link(rate=1000.0, latency=0.0),
        segment_bytes=100, window_segments=4,
        switch_buffer_bytes=buffer_bytes, rto=rto,
    )
    got = []
    net.transport("sink").listen(6000, lambda m: got.append(m.size))
    for i, (h, size) in enumerate(zip(hosts[1:], sizes)):
        net.transport(h).send_message(
            Message(flow=FlowKey(h, 100 + i, "sink", 6000), size=size)
        )
    sim.run(max_steps=2_000_000)
    assert sorted(got) == sorted(sizes)
    assert net.nic("sink").bytes_rx == sum(sizes)
