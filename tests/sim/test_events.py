"""Unit tests for the event heap, driven through the simulator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL


def test_empty_queue_is_falsy():
    q = Simulator().events
    assert not q
    assert len(q) == 0


def test_events_pop_in_time_order():
    sim = Simulator()
    order = []
    for t in [3.0, 1.0, 2.0]:
        sim.schedule(t, order.append, (t,))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_break_by_priority_then_seq():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, ("normal",), priority=PRIORITY_NORMAL)
    sim.schedule(1.0, order.append, ("high",), priority=PRIORITY_HIGH)
    sim.schedule(1.0, order.append, ("low",), priority=PRIORITY_LOW)
    sim.schedule(1.0, order.append, ("normal-2",))
    sim.run()
    assert order == ["high", "normal", "normal-2", "low"]


def test_same_time_same_priority_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(5.0, order.append, (i,))
    sim.run()
    assert order == list(range(10))


def test_cancel_is_skipped_and_len_updates():
    sim = Simulator()
    ran = []
    a = sim.schedule(1.0, ran.append, ("a",))
    sim.schedule(2.0, ran.append, ("b",))
    sim.cancel(a)
    assert len(sim.events) == 1
    sim.run()
    assert ran == ["b"]
    assert not sim.events


def test_cancel_idempotent():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.cancel(a)
    sim.cancel(a)
    assert len(sim.events) == 0
    assert sim.events.cancels == 1


def test_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_cancelled_events_do_not_accumulate():
    """Cancel-heavy workloads must not grow the heap without bound.

    Regression test: lazy cancellation used to leave every tombstone in
    the heap until its time surfaced, so a schedule/cancel loop (the NIC
    retry-timer pattern) grew the heap linearly with simulated time.
    """
    sim = Simulator()
    ran = []
    sim.schedule(1e9, ran.append, ("anchor",))  # far-future event pins the heap
    for i in range(50_000):
        sim.cancel(sim.schedule(1.0 + i * 1e-6, ran.append, (i,)))
    assert len(sim.events) == 1
    # bounded: compaction keeps physical entries ~O(live), not O(cancels)
    assert sim.events.heap_size < 200
    sim.run()
    assert ran == ["anchor"]


def test_cancel_after_pop_is_noop():
    """Cancelling an already-executed event must not corrupt accounting."""
    sim = Simulator()
    ran = []
    a = sim.schedule(1.0, ran.append, ("a",))
    sim.schedule(2.0, ran.append, ("b",))
    sim.run(until=1.5)
    assert ran == ["a"]
    sim.cancel(a)  # already ran: must not decrement the live count
    assert len(sim.events) == 1
    sim.run()
    assert ran == ["a", "b"]
    assert len(sim.events) == 0


def test_compaction_preserves_pop_order():
    sim = Simulator()
    ran = []
    handles = [sim.schedule(float(i), ran.append, (float(i),)) for i in range(500)]
    for ev in handles[::2]:
        sim.cancel(ev)
    # schedule/cancel more to force compaction past the floor
    for i in range(500):
        sim.cancel(sim.schedule(1000.0 + i, ran.append, (1000.0 + i,)))
    sim.run()
    assert ran == [float(i) for i in range(1, 500, 2)]


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    sim = Simulator()
    ran = []
    for t in times:
        sim.schedule(t, ran.append, (t,))
    sim.run()
    assert ran == sorted(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancellation_never_leaks(spec):
    """After cancelling a subset, exactly the live events run, in order."""
    sim = Simulator()
    ran = []
    live_times = []
    handles = []
    for t, keep in spec:
        handles.append((sim.schedule(t, ran.append, (t,)), keep, t))
    for ev, keep, t in handles:
        if keep:
            live_times.append(t)
        else:
            sim.cancel(ev)
    assert len(sim.events) == len(live_times)
    sim.run()
    assert ran == sorted(live_times)
    assert len(sim.events) == 0
