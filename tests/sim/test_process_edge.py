"""Edge-case tests for the process machinery: throw, kill, nesting."""

import pytest

from repro.errors import ProcessError
from repro.sim import Mailbox, Simulator, Timeout


def test_throw_into_process_handled():
    """A process can catch an exception thrown into it and continue."""
    sim = Simulator()
    log = []

    def proc():
        try:
            yield Timeout(10.0)
        except ValueError as e:
            log.append(f"caught {e}")
        yield Timeout(1.0)
        log.append(f"done at {sim.now}")

    p = sim.spawn(proc())
    sim.schedule(2.0, p._throw, (ValueError("interrupt"),))
    sim.run()
    assert log == ["caught interrupt", "done at 3.0"]
    assert not p.alive
    assert p.error is None


def test_throw_unhandled_raises_process_error():
    sim = Simulator()

    def proc():
        yield Timeout(10.0)

    p = sim.spawn(proc())
    sim.run(until=1.0)
    with pytest.raises(ProcessError, match="killed"):
        p._throw(RuntimeError("die"))
    assert not p.alive
    assert isinstance(p.error, RuntimeError)


def test_throw_into_dead_process_is_noop():
    sim = Simulator()

    def proc():
        return 1
        yield  # pragma: no cover

    p = sim.spawn(proc())
    sim.run()
    p._throw(RuntimeError("late"))  # must not raise
    assert p.result == 1


def test_kill_then_pending_timeout_fires_harmlessly():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)
        raise AssertionError("must not resume")

    p = sim.spawn(proc())
    sim.schedule(1.0, p.kill)
    sim.run()  # the t=5 timeout still fires; resume is ignored
    assert sim.now == 5.0
    assert not p.alive


def test_nested_spawn_from_within_process():
    sim = Simulator()
    order = []

    def child(n):
        yield Timeout(0.5)
        order.append(f"child{n}")

    def parent():
        order.append("parent-start")
        for i in range(3):
            sim.spawn(child(i))
        yield Timeout(1.0)
        order.append("parent-end")

    sim.spawn(parent())
    sim.run()
    assert order == ["parent-start", "child0", "child1", "child2", "parent-end"]


def test_mailbox_get_across_kill_does_not_leak():
    """A killed getter's pending token completes harmlessly later."""
    sim = Simulator()
    mb = Mailbox(sim)
    got = []

    def victim():
        got.append((yield mb.get()))

    def survivor():
        got.append((yield mb.get()))

    v = sim.spawn(victim())
    sim.spawn(survivor())
    sim.schedule(1.0, v.kill)
    sim.schedule(2.0, mb.put, ("a",))
    sim.schedule(3.0, mb.put, ("b",))
    sim.run()
    # victim's token absorbed "a" but the dead process ignores the resume;
    # survivor gets "b".  No crash, no cross-delivery.
    assert got == ["b"]
