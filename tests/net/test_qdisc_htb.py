"""Unit tests for the HTB qdisc — the discipline TensorLights configures."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QdiscError
from repro.net.qdisc import HTBQdisc, PortFilter
from repro.net.qdisc.tbf import TOKEN_EPSILON
from repro.units import gbps

from tests.net.helpers import seg

LINK = gbps(10)


def tls_style_htb(bands=3, link_rate=LINK):
    """Build the TensorLights-shape HTB: root at link rate, one leaf per
    band with a tiny guaranteed rate, ceil = link rate, prio = band."""
    f = PortFilter()
    htb = HTBQdisc(filter=f, default_classid=100 + bands - 1)
    htb.add_class(1, rate=link_rate, ceil=link_rate)  # root
    for band in range(bands):
        htb.add_class(
            100 + band, rate=link_rate / 1000.0, ceil=link_rate,
            prio=band, parent=1,
        )
        f.add_match(5000 + band, 100 + band)
    return htb, f


# ---------------------------------------------------------------- config


def test_add_class_duplicate_rejected():
    htb = HTBQdisc()
    htb.add_class(1, rate=100.0)
    with pytest.raises(QdiscError):
        htb.add_class(1, rate=100.0)


def test_add_class_missing_parent_rejected():
    htb = HTBQdisc()
    with pytest.raises(QdiscError):
        htb.add_class(2, rate=100.0, parent=1)


def test_add_class_ceil_below_rate_rejected():
    htb = HTBQdisc()
    with pytest.raises(QdiscError):
        htb.add_class(1, rate=100.0, ceil=50.0)


def test_add_class_defaults_ceil_to_rate():
    htb = HTBQdisc()
    cls = htb.add_class(1, rate=100.0)
    assert cls.ceil == 100.0


def test_change_class_prio_and_rates():
    htb, _ = tls_style_htb()
    htb.change_class(100, prio=5)
    assert htb.classes[100].prio == 5
    htb.change_class(100, rate=123.0, ceil=456.0)
    assert htb.classes[100].rate == 123.0
    assert htb.classes[100].ceil == 456.0
    with pytest.raises(QdiscError):
        htb.change_class(100, ceil=1.0)  # below rate
    with pytest.raises(QdiscError):
        htb.change_class(999)


def test_del_class():
    htb, _ = tls_style_htb()
    dropped = []
    htb.on_drop = dropped.append
    a, b, c = (seg(size, sport=5000) for size in (100, 200, 300))
    other = seg(400, sport=5001)
    for s in (a, b, c, other):
        htb.enqueue(s, 0.0)
    assert htb.dequeue(0.0) is a  # leaves a _last_served entry for 100
    htb.del_class(100)
    assert 100 not in htb.classes
    assert 100 not in htb._last_served
    # the queued segments are head drops: counted and reported in order
    assert dropped == [b, c]
    assert htb.drops == 2
    assert len(htb) == 1
    assert htb.backlog_bytes == 400
    assert htb.dequeue(0.0) is other
    with pytest.raises(QdiscError):
        htb.del_class(1)  # has children


def test_cannot_attach_child_to_backlogged_leaf():
    htb = HTBQdisc(default_classid=1)
    htb.add_class(1, rate=100.0)
    htb.enqueue(seg(10), 0.0)
    with pytest.raises(QdiscError):
        htb.add_class(2, rate=50.0, parent=1)


# ---------------------------------------------------------------- classify


def test_unmatched_traffic_goes_to_default_class():
    htb, _ = tls_style_htb(bands=3)
    assert htb.enqueue(seg(100, sport=9999), 0.0)
    assert len(htb._get(102).queue) == 1  # default = last band


def test_no_default_no_match_drops():
    htb = HTBQdisc(filter=PortFilter())
    htb.add_class(1, rate=100.0)
    assert not htb.enqueue(seg(100, sport=9999), 0.0)
    assert htb.drops == 1


def test_classify_to_non_leaf_falls_back_to_default():
    htb, f = tls_style_htb()
    f.add_match(7000, 1)  # class 1 is the root (non-leaf)
    assert htb.enqueue(seg(100, sport=7000), 0.0)
    assert len(htb._get(102).queue) == 1


# ---------------------------------------------------------------- scheduling


def test_strict_priority_when_borrowing():
    """With tiny guaranteed rates exhausted, lower prio value wins."""
    htb, _ = tls_style_htb(bands=3)
    big = 2_000_000  # larger than any leaf burst -> must borrow
    lo = seg(big, sport=5002)
    hi = seg(big, sport=5000)
    htb.enqueue(lo, 0.0)
    htb.enqueue(hi, 0.0)
    assert htb.dequeue(0.0) is hi
    # advance by the serialization time, as the NIC would, so the root
    # bucket refills at link rate
    assert htb.dequeue(big / LINK) is lo


def test_work_conserving_with_root_at_link_rate():
    """The TLs config never stalls while backlogged: root lends freely."""
    htb, _ = tls_style_htb(bands=6)
    n = 200
    size = 1_000_000
    for i in range(n):
        htb.enqueue(seg(size, sport=5000 + (i % 6)), 0.0)
    now = 0.0
    sent = 0
    while sent < n:
        s = htb.dequeue(now)
        assert s is not None, "TLs-config HTB stalled while backlogged"
        now += s.size / LINK  # drain at link rate, as the NIC would
        sent += 1
    assert len(htb) == 0


def test_guaranteed_rate_prevents_starvation():
    """A low-prio class still gets its guaranteed rate under pressure."""
    link = 1000.0
    f = PortFilter()
    htb = HTBQdisc(filter=f, default_classid=11)
    htb.add_class(1, rate=link, ceil=link, burst=100.0, cburst=100.0)
    htb.add_class(10, rate=100.0, ceil=link, prio=0, parent=1, burst=100.0, cburst=100.0)
    htb.add_class(11, rate=100.0, ceil=link, prio=1, parent=1, burst=100.0, cburst=100.0)
    f.add_match(5000, 10)
    f.add_match(5001, 11)
    size = 100
    for _ in range(400):
        htb.enqueue(seg(size, sport=5000), 0.0)
        htb.enqueue(seg(size, sport=5001), 0.0)
    now = 0.0
    sent_low = 0
    total = 0
    while now < 10.0 and len(htb) > 0:
        s = htb.dequeue(now)
        if s is None:
            now = max(htb.next_ready_time(now), now + 1e-6)
            continue
        if s.flow.src_port == 5001:
            sent_low += 1
        total += 1
        now += s.size / link
    # low-prio should have received ~ its 10% guaranteed share
    assert sent_low * size >= 0.05 * total * size


def test_ceil_caps_a_class():
    """A class with ceil < link rate cannot exceed its ceiling."""
    link = 1000.0
    f = PortFilter()
    htb = HTBQdisc(filter=f)
    htb.add_class(1, rate=link, ceil=link)
    htb.add_class(10, rate=100.0, ceil=200.0, prio=0, parent=1)
    f.add_match(5000, 10)
    size = 100
    for _ in range(100):
        htb.enqueue(seg(size, sport=5000), 0.0)
    horizon = 20.0
    now, sent_bytes = 0.0, 0
    while now < horizon and len(htb):
        s = htb.dequeue(now)
        if s is None:
            nxt = htb.next_ready_time(now)
            assert nxt is not None
            now = max(nxt, now + 1e-6)
            continue
        sent_bytes += s.size
        now = max(now, 0.0)  # dequeue instantaneous; shaping via bucket
    # burst allowance + ceil * horizon bounds throughput
    from repro.net.qdisc.htb import MIN_BURST_BYTES

    assert sent_bytes <= MIN_BURST_BYTES + 200.0 * horizon + size


@settings(max_examples=40)
@given(
    rate=st.floats(1e3, 1e9),
    sizes=st.lists(st.integers(500, 9000), min_size=1, max_size=6),
    burst_segments=st.integers(1, 8),
    horizon_segments=st.floats(0.0, 60.0),
    nested=st.booleans(),
)
def test_capped_class_conforms_to_token_bucket_envelope(
    rate, sizes, burst_segments, horizon_segments, nested
):
    """Closed-form oracle: a continuously backlogged class with
    ``rate == ceil == R`` and burst ``B`` dequeues between
    ``B + R*T - max_segment`` and ``B + R*T`` bytes over ``[0, T]``."""
    max_segment = max(sizes)
    burst = float(burst_segments * max_segment)
    horizon = horizon_segments * max_segment / rate
    htb = HTBQdisc(default_classid=10)
    if nested:
        # the capped leaf under a faster root that the rate_control hook builds
        htb.add_class(1, rate=4 * rate, ceil=4 * rate)
        htb.add_class(10, rate=rate, ceil=rate, parent=1, burst=burst, cburst=burst)
    else:
        htb.add_class(10, rate=rate, ceil=rate, burst=burst, cburst=burst)
    feed = itertools.cycle(sizes)
    now, sent = 0.0, 0
    while True:
        while len(htb) < 2:
            htb.enqueue(seg(next(feed)), now)
        s = htb.dequeue(now)
        if s is not None:
            sent += s.size
            continue
        ready = htb.next_ready_time(now)
        if ready > horizon:
            break
        now = max(ready, math.nextafter(now, math.inf))
    envelope = burst + rate * horizon
    slack = TOKEN_EPSILON + 1e-9 * envelope  # float rounding of the refills
    assert envelope - max_segment - slack <= sent <= envelope + slack


def test_next_ready_time_none_when_empty():
    htb, _ = tls_style_htb()
    assert htb.next_ready_time(0.0) is None


def test_drr_fairness_within_same_prio():
    """Two same-prio leaves borrowing share roughly equally."""
    link = 10_000.0
    f = PortFilter()
    htb = HTBQdisc(filter=f)
    htb.add_class(1, rate=link, ceil=link)
    for i, port in enumerate((5000, 5001)):
        htb.add_class(10 + i, rate=1.0, ceil=link, prio=0, parent=1, quantum=1000)
        f.add_match(port, 10 + i)
    size = 500
    for _ in range(200):
        htb.enqueue(seg(size, sport=5000), 0.0)
        htb.enqueue(seg(size, sport=5001), 0.0)
    counts = {5000: 0, 5001: 0}
    now = 0.0
    for _ in range(100):
        s = htb.dequeue(now)
        assert s is not None
        counts[s.flow.src_port] += 1
        now += s.size / link
    assert abs(counts[5000] - counts[5001]) <= 10


def test_sent_bytes_accounting():
    htb, _ = tls_style_htb()
    htb.enqueue(seg(100, sport=5000), 0.0)
    htb.dequeue(0.0)
    assert htb.classes[100].sent_bytes == 100


def test_backlog_accounting():
    htb, _ = tls_style_htb()
    htb.enqueue(seg(100, sport=5000), 0.0)
    htb.enqueue(seg(200, sport=5001), 0.0)
    assert len(htb) == 2
    assert htb.backlog_bytes == 300
    htb.dequeue(0.0)
    assert len(htb) == 1
