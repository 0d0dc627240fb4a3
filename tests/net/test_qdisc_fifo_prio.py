"""Unit tests for PFifo and the port filter."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QdiscError
from repro.net.qdisc import PFifo, PortFilter

from tests.net.helpers import seg


# ---------------------------------------------------------------- PFifo


def test_pfifo_fifo_order():
    q = PFifo()
    a, b, c = seg(10), seg(20), seg(30)
    for s in (a, b, c):
        assert q.enqueue(s, 0.0)
    assert q.dequeue(0.0) is a
    assert q.dequeue(0.0) is b
    assert q.dequeue(0.0) is c
    assert q.dequeue(0.0) is None


def test_pfifo_backlog_accounting():
    q = PFifo()
    q.enqueue(seg(10), 0.0)
    q.enqueue(seg(20), 0.0)
    assert len(q) == 2
    assert q.backlog_bytes == 30
    q.dequeue(0.0)
    assert len(q) == 1
    assert q.backlog_bytes == 20


def test_pfifo_limit_drops():
    q = PFifo(limit=2)
    assert q.enqueue(seg(), 0.0)
    assert q.enqueue(seg(), 0.0)
    assert not q.enqueue(seg(), 0.0)
    assert q.drops == 1
    assert len(q) == 2


def test_pfifo_invalid_limit():
    with pytest.raises(QdiscError):
        PFifo(limit=0)


def test_pfifo_work_conserving_contract():
    q = PFifo()
    assert q.next_ready_time(5.0) is None
    q.enqueue(seg(), 5.0)
    assert q.next_ready_time(5.0) == 5.0


@given(st.lists(st.integers(min_value=1, max_value=10_000), max_size=60))
def test_property_pfifo_preserves_order_and_bytes(sizes):
    q = PFifo()
    segments = [seg(s) for s in sizes]
    for s in segments:
        q.enqueue(s, 0.0)
    assert q.backlog_bytes == sum(sizes)
    out = []
    while True:
        s = q.dequeue(0.0)
        if s is None:
            break
        out.append(s)
    assert out == segments
    assert q.backlog_bytes == 0


# ---------------------------------------------------------------- PortFilter


def test_port_filter_src_match():
    f = PortFilter(default_class=9)
    f.add_match(5000, 1)
    assert f.classify(seg(sport=5000)) == 1
    assert f.classify(seg(sport=5001)) == 9


def test_port_filter_remove_match():
    f = PortFilter(default_class=0)
    f.add_match(5000, 1)
    assert len(f._by_src) == 1
    f.remove_match(5000)
    assert f.classify(seg(sport=5000)) == 0
    assert len(f._by_src) == 0
    f.remove_match(5000)  # idempotent
