"""Unit tests for sim synchronization primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import AllOf, Mailbox, Signal, Simulator, Timeout


# ---------------------------------------------------------------- Mailbox


def test_mailbox_put_then_get():
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer():
        got.append((yield mb.get()))

    mb.put("x")
    sim.spawn(consumer())
    sim.run()
    assert got == ["x"]


def test_mailbox_get_blocks_until_put():
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer():
        got.append(((yield mb.get()), sim.now))

    sim.spawn(consumer())
    sim.schedule(2.0, mb.put, ("late",))
    sim.run()
    assert got == [("late", 2.0)]


def test_mailbox_fifo_order_of_items():
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield mb.get()))

    for i in range(3):
        mb.put(i)
    sim.spawn(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_mailbox_multiple_getters_served_fifo():
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer(name):
        got.append((name, (yield mb.get())))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.schedule(1.0, mb.put, ("a",))
    sim.schedule(2.0, mb.put, ("b",))
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_mailbox_put_completes_a_token_not_yet_awaited():
    """``put`` completes a queued waiter inline only once it is
    registered; a token taken but not yet yielded keeps the value."""
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer():
        tok = mb.get()  # queued as a getter, not yet yielded on
        mb.put("early")
        yield Timeout(1.0)
        got.append(((yield tok), sim.now))

    sim.spawn(consumer())
    sim.run()
    assert got == [("early", 1.0)]
    assert len(mb) == 0


@given(st.lists(st.integers(), max_size=50))
def test_property_mailbox_preserves_order(items):
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def consumer():
        for _ in items:
            got.append((yield mb.get()))

    for it in items:
        mb.put(it)
    sim.spawn(consumer())
    sim.run()
    assert got == items


# ---------------------------------------------------------------- Signal


def test_signal_wakes_all_waiters():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter(name):
        v = yield sig
        got.append((name, v, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(3.0, sig.fire, ("done",))
    sim.run()
    assert got == [("a", "done", 3.0), ("b", "done", 3.0)]


def test_signal_after_fire_resumes_immediately():
    sim = Simulator()
    sig = Signal()
    sig.fire(7)
    got = []

    def waiter():
        got.append((yield sig))

    sim.spawn(waiter())
    sim.run()
    assert got == [7]


def test_signal_double_fire_raises():
    sig = Signal()
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_all_of_waits_for_every_signal():
    sim = Simulator()
    sigs = [Signal() for _ in range(3)]
    got = []

    def waiter():
        vals = yield AllOf(sigs)
        got.append((vals, sim.now))

    sim.spawn(waiter())
    sim.schedule(1.0, sigs[1].fire, ("b",))
    sim.schedule(2.0, sigs[0].fire, ("a",))
    sim.schedule(5.0, sigs[2].fire, ("c",))
    sim.run()
    assert got == [(["a", "b", "c"], 5.0)]


def test_all_of_with_already_fired_signals():
    sim = Simulator()
    sigs = [Signal(), Signal()]
    sigs[0].fire(1)
    sigs[1].fire(2)
    got = []

    def waiter():
        got.append((yield AllOf(sigs)))

    sim.spawn(waiter())
    sim.run()
    assert got == [[1, 2]]


def test_all_of_empty_list_resumes_immediately():
    sim = Simulator()
    got = []

    def waiter():
        got.append((yield AllOf([])))

    sim.spawn(waiter())
    sim.run()
    assert got == [[]]


def test_all_of_same_signal_twice():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        got.append((yield AllOf([sig, sig])))

    sim.spawn(waiter())
    sim.schedule(1.0, sig.fire, ("v",))
    sim.run()
    assert got == [["v", "v"]]
