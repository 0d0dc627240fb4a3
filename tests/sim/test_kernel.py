"""Unit tests for the Simulator event loop and process spawning."""

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim import Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run():
    sim = Simulator()
    out = []
    sim.schedule(1.5, out.append, (1,))
    sim.schedule(0.5, out.append, (2,))
    end = sim.run()
    assert out == [2, 1]
    assert end == 1.5


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at_fire(0.5, lambda: None)


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, ("a",))
    sim.schedule(5.0, out.append, ("b",))
    sim.run(until=2.0)
    assert out == ["a"]
    assert sim.now == 2.0
    sim.run()  # pending event still runs afterwards
    assert out == ["a", "b"]
    assert sim.now == 5.0


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_cancel_event():
    sim = Simulator()
    out = []
    ev = sim.schedule(1.0, out.append, (1,))
    sim.cancel(ev)
    sim.run()
    assert out == []


def test_max_steps_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(0.0, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError, match="max_steps"):
        sim.run(max_steps=100)


def test_steps_executed_counts():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim.steps_executed == 7


def test_process_returns_result():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        return 42

    p = sim.spawn(proc(), name="answer")
    sim.run()
    assert not p.alive
    assert p.result == 42


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_process_exception_propagates_as_process_error():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessError, match="bad"):
        sim.run()


def test_yield_non_waitable_raises():
    sim = Simulator()

    def bad():
        yield 123  # type: ignore[misc]

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError, match="Waitable"):
        sim.run()


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_timeout_value_delivery():
    sim = Simulator()
    got = []

    def proc():
        v = yield Timeout(0.5, value="payload")
        got.append(v)

    sim.spawn(proc())
    sim.run()
    assert got == ["payload"]


def test_kill_stops_process():
    sim = Simulator()
    out = []

    def proc():
        yield Timeout(1.0)
        out.append("should not happen")

    p = sim.spawn(proc())
    sim.schedule(0.5, p.kill)
    sim.run()
    assert out == []
    assert not p.alive


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    out = []

    def ticker(name, period):
        for _ in range(3):
            yield Timeout(period)
            out.append((name, sim.now))

    sim.spawn(ticker("a", 1.0))
    sim.spawn(ticker("b", 1.5))
    sim.run()
    assert out == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),  # b's timeout was scheduled (at t=1.5) before a's (at t=2.0)
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_determinism_across_runs():
    def build():
        sim = Simulator(seed=7)
        out = []

        def proc(name):
            for i in range(5):
                jitter = sim.rng.lognormal_factor("noise/" + name, 0.3)
                yield Timeout(0.1 * jitter)
                out.append((name, round(sim.now, 12)))

        sim.spawn(proc("x"))
        sim.spawn(proc("y"))
        sim.run()
        return out

    assert build() == build()
