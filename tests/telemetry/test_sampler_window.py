"""Unit tests for host telemetry sampling and active-window aggregation."""

import pytest

from repro.cluster import Cluster
from repro.errors import ConfigError
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.packet import Message
from repro.sim import Simulator
from repro.telemetry import ActiveWindow, HostSampler, SampleSeries, window_mean


def make_cluster(sim):
    return Cluster(sim, n_hosts=2, cores_per_host=2, link=Link(rate=1000.0))


def test_sampler_validation():
    sim = Simulator()
    cluster = make_cluster(sim)
    with pytest.raises(ConfigError):
        HostSampler(cluster.host("h00"), interval=0.0)


def test_idle_host_samples_zero():
    sim = Simulator()
    cluster = make_cluster(sim)
    s = HostSampler(cluster.host("h00"), interval=1.0)
    s.start()
    sim.schedule(5.5, s.stop)
    sim.run()
    assert len(s.cpu) == 5
    assert all(v == 0.0 for v in s.cpu.values)
    assert all(v == 0.0 for v in s.net_in.values)
    assert all(v == 0.0 for v in s.net_out.values)


def test_cpu_utilization_half_loaded():
    sim = Simulator()
    cluster = make_cluster(sim)  # 2 cores
    host = cluster.host("h00")
    sim.spawn((lambda: (yield host.cpu.run(10.0)))())  # 1 of 2 cores busy
    s = HostSampler(host, interval=1.0)
    s.start()
    sim.run(until=4.5)
    s.stop()
    assert len(s.cpu) >= 4
    assert all(v == pytest.approx(0.5) for v in s.cpu.values)


def test_net_utilization_saturated_link():
    sim = Simulator()
    # small segments so byte counters advance many times per sample interval
    cluster = Cluster(sim, n_hosts=2, cores_per_host=2,
                      link=Link(rate=1000.0), segment_bytes=100)
    got = []
    cluster.host("h01").transport.listen(6000, got.append)
    # 5000 B at 1000 B/s saturates the NIC for 5 s
    cluster.host("h00").transport.send_message(
        Message(flow=FlowKey("h00", 5000, "h01", 6000), size=5000)
    )
    tx = HostSampler(cluster.host("h00"), interval=1.0)
    rx = HostSampler(cluster.host("h01"), interval=1.0)
    tx.start()
    rx.start()
    sim.run(until=4.0)
    tx.stop()
    rx.stop()
    sim.run()
    assert tx.net_out.values[0] == pytest.approx(1.0)
    assert rx.net_in.values[1] == pytest.approx(1.0)  # one-hop pipeline lag
    assert got  # message delivered


def test_sampler_start_idempotent():
    sim = Simulator()
    cluster = make_cluster(sim)
    s = HostSampler(cluster.host("h00"), interval=1.0)
    s.start()
    s.start()
    sim.run(until=2.5)
    s.stop()
    sim.run()
    assert len(s.cpu) == 2  # not doubled


def test_sample_series_arrays():
    s = SampleSeries()
    s.add(1.0, 0.5)
    s.add(2.0, 0.7)
    t, v = s.as_arrays()
    assert t.tolist() == [1.0, 2.0]
    assert v.tolist() == [0.5, 0.7]


# ---------------------------------------------------------------- window


def test_window_validation():
    with pytest.raises(ConfigError):
        ActiveWindow(5.0, 5.0)


def test_window_contains():
    w = ActiveWindow(1.0, 3.0)
    assert w.contains(1.0)
    assert w.contains(2.9)
    assert not w.contains(3.0)
    assert w.length == 2.0


def test_window_mean_selects_samples():
    s = SampleSeries()
    for t, v in [(0.5, 10.0), (1.5, 1.0), (2.5, 3.0), (3.5, 99.0)]:
        s.add(t, v)
    assert window_mean(s, ActiveWindow(1.0, 3.0)) == pytest.approx(2.0)


def test_window_mean_empty_raises():
    s = SampleSeries()
    s.add(0.5, 1.0)
    with pytest.raises(ConfigError, match="no samples"):
        window_mean(s, ActiveWindow(10.0, 20.0))


def test_sampler_stop_prevents_future_samples():
    sim = Simulator()
    cluster = make_cluster(sim)
    s = HostSampler(cluster.host("h00"), interval=0.5)
    s.start()
    sim.run(until=1.2)
    n = len(s.cpu)
    s.stop()
    sim.run(until=5.0)
    assert len(s.cpu) <= n + 1  # at most the already-armed tick fires


def test_window_mean_boundary_samples():
    s = SampleSeries()
    s.add(1.0, 2.0)   # exactly at start: included
    s.add(3.0, 99.0)  # exactly at end: excluded
    assert window_mean(s, ActiveWindow(1.0, 3.0)) == 2.0


def test_window_mean_straddles_series_boundary():
    """A window wider than the series must average only what exists.

    The auto-window in the utilization report can overhang the sampled
    range on short runs; the overhang must not bias the mean (no phantom
    zeros, no NaNs) — only the in-range samples count.
    """
    s = SampleSeries()
    for t, v in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
        s.add(t, v)
    # straddles the end: covers samples at 2.0 and 3.0, then empty space
    assert window_mean(s, ActiveWindow(1.5, 10.0)) == pytest.approx(5.0)
    # straddles the start: empty space, then the sample at 1.0 only
    assert window_mean(s, ActiveWindow(-5.0, 1.5)) == pytest.approx(2.0)
    # envelops the whole series
    assert window_mean(s, ActiveWindow(-5.0, 10.0)) == pytest.approx(4.0)


# ---------------------------------------------------------------- restart race


def test_sampler_restart_does_not_duplicate_loops():
    """stop() then start() must not leave two loops recording.

    The stopped loop is still parked on its armed Timeout; without the
    epoch check it would wake, see ``_running`` true again, and record
    every interval alongside the fresh loop — doubling the series.
    """
    sim = Simulator()
    cluster = make_cluster(sim)
    s = HostSampler(cluster.host("h00"), interval=1.0)
    s.start()
    sim.schedule(2.5, s.stop)
    sim.schedule(2.7, s.start)  # before the parked tick at t=3.0 fires
    sim.run(until=6.45)
    s.stop()
    sim.run()  # drain the leftover timeout
    # first epoch: 1.0, 2.0; second epoch (anchored at 2.7): 3.7, 4.7, 5.7
    assert s.cpu.times == pytest.approx([1.0, 2.0, 3.7, 4.7, 5.7])
    assert all(b > a for a, b in zip(s.cpu.times, s.cpu.times[1:]))


# ------------------------------------------------------- utilization math


def test_net_out_saturated_is_exactly_one_in_si_units():
    """Pin the bytes-vs-bits convention against ``repro.units``.

    ``Link.rate`` and NIC byte counters are both bytes/second
    (``gbps(10)`` is 1.25e9 B/s), so a saturated NIC samples at exactly
    1.0.  A bits-for-bytes mixup anywhere in the pipeline would surface
    here as 0.125 or 8.0.
    """
    from repro.units import gbps

    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2, cores_per_host=2,
                      link=Link(rate=gbps(10)), segment_bytes=64 * 1024)
    cluster.host("h01").transport.listen(6000, lambda m: None)
    size = int(gbps(10) * 0.5)  # half a second of line rate
    cluster.host("h00").transport.send_message(
        Message(flow=FlowKey("h00", 5000, "h01", 6000), size=size)
    )
    s = HostSampler(cluster.host("h00"), interval=0.1)
    s.start()
    sim.run(until=0.45)
    s.stop()
    sim.run()
    assert len(s.net_out) == 4
    for v in s.net_out.values:
        # segment quantization leaves ~1e-4 slack; a unit mixup is 8x off
        assert v == pytest.approx(1.0, rel=1e-3)
