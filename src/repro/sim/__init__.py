"""Discrete-event simulation kernel.

A small, fast simpy-flavoured kernel: an event heap, a clock, and
generator-based processes that ``yield`` *waitables* (timeouts, mailbox
gets, signals).

Public surface::

    from repro.sim import Simulator, Timeout, Mailbox, Signal, AllOf

    sim = Simulator(seed=1)

    def proc(sim):
        yield Timeout(1.0)
        ...

    sim.spawn(proc(sim), name="demo")
    sim.run()
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process, Timeout, Waitable
from repro.sim.primitives import AllOf, Mailbox, Signal
from repro.sim.rng import RandomStreams
from repro.sim.watchdog import Watchdog, WatchdogViolation

__all__ = [
    "AllOf",
    "Event",
    "EventQueue",
    "Mailbox",
    "Process",
    "RandomStreams",
    "Signal",
    "Simulator",
    "Timeout",
    "Waitable",
    "Watchdog",
    "WatchdogViolation",
]
