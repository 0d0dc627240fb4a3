"""Cross-qdisc property tests: invariants every discipline must satisfy.

A random schedule of enqueues and dequeues is applied to each qdisc; the
invariants below must hold regardless of discipline:

* conservation: every accepted segment comes out exactly once, none are
  invented;
* accounting: ``len`` and ``backlog_bytes`` always equal the ground truth;
* work conservation (for work-conserving qdiscs): ``dequeue`` never
  returns None while backlogged;
* shaped qdiscs: ``next_ready_time`` is never in the past and retrying at
  it (plus epsilon) always makes progress;
* ``drain_all`` empties the qdisc and returns exactly the backlog.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.qdisc import DRRQdisc, HTBQdisc, PFifo, PortFilter

from tests.net.helpers import seg


def make_qdisc(name):
    if name == "pfifo":
        return PFifo()
    if name == "drr":
        return DRRQdisc(quantum=500)
    if name == "htb":
        filt = PortFilter()
        htb = HTBQdisc(filter=filt, default_classid=12)
        htb.add_class(1, rate=1e6, ceil=1e6)
        for band in range(3):
            htb.add_class(10 + band, rate=1e3, ceil=1e6, prio=band, parent=1)
            filt.add_match(5000 + band, 10 + band)
        return htb
    raise AssertionError(name)


ALL_QDISCS = ["pfifo", "drr", "htb"]
WORK_CONSERVING = ["pfifo", "drr"]

schedule = st.lists(
    st.tuples(
        st.sampled_from(["enq", "deq"]),
        st.integers(min_value=0, max_value=2),   # flow/band choice
        st.integers(min_value=1, max_value=4000),  # size
    ),
    max_size=120,
)


@pytest.mark.parametrize("name", ALL_QDISCS)
@settings(max_examples=30)
@given(ops=schedule)
def test_property_conservation_and_accounting(name, ops):
    q = make_qdisc(name)
    now = 0.0
    accepted = {}
    out = []
    for op, flow_idx, size in ops:
        now += 1e-4
        if op == "enq":
            s = seg(size, sport=5000 + flow_idx)
            if q.enqueue(s, now):
                accepted[id(s)] = s
        else:
            s = q.dequeue(now)
            if s is not None:
                out.append(s)
        # accounting invariant at every step
        inside = len(accepted) - len(out)
        assert len(q) == inside
        assert q.backlog_bytes == sum(
            x.size for x in accepted.values()
        ) - sum(x.size for x in out)
    # drain the remainder (ignoring shaping)
    rest = q.drain_all(now)
    assert len(q) == 0 and q.backlog_bytes == 0
    seen = [id(s) for s in out + rest]
    assert sorted(seen) == sorted(accepted)  # exactly once, none invented


@pytest.mark.parametrize("name", WORK_CONSERVING)
@settings(max_examples=25)
@given(ops=schedule)
def test_property_work_conservation(name, ops):
    q = make_qdisc(name)
    now = 0.0
    for op, flow_idx, size in ops:
        now += 1e-4
        if op == "enq":
            q.enqueue(seg(size, sport=5000 + flow_idx), now)
        else:
            s = q.dequeue(now)
            if s is None:
                assert len(q) == 0, f"{name} stalled while backlogged"


@pytest.mark.parametrize("name", ["htb"])
@settings(max_examples=25)
@given(ops=schedule)
def test_property_shaped_qdiscs_always_make_progress(name, ops):
    """Retrying at next_ready_time (+eps) eventually drains everything."""
    q = make_qdisc(name)
    now = 0.0
    n_in = 0
    for op, flow_idx, size in ops:
        if op == "enq":
            if q.enqueue(seg(size, sport=5000 + flow_idx), now):
                n_in += 1
    drained = 0
    guard = 0
    while len(q) > 0:
        guard += 1
        assert guard < 100_000, f"{name} failed to drain"
        s = q.dequeue(now)
        if s is not None:
            drained += 1
            continue
        nxt = q.next_ready_time(now)
        assert nxt is not None, f"{name} backlogged but no ready time"
        assert nxt >= now - 1e-12, f"{name} ready time in the past"
        now = max(nxt, now + 1e-6)
    assert drained == n_in


@pytest.mark.parametrize("name", ALL_QDISCS)
def test_empty_qdisc_contract(name):
    q = make_qdisc(name)
    assert len(q) == 0
    assert q.backlog_bytes == 0
    assert q.dequeue(0.0) is None
    assert q.next_ready_time(0.0) is None
    assert q.drain_all(0.0) == []
