"""The simulation kernel: clock, event loop, process spawning."""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from time import monotonic
from typing import Any, Callable, Optional

from repro.errors import DeadlineExceeded, SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, EventQueue
from repro.sim.process import Process, ProcessGen
from repro.sim.rng import RandomStreams

#: A deadline-bound :meth:`Simulator.run` reads the wall clock once
#: every this many dispatched events (a power of two).
DEADLINE_STRIDE = 1 << 10


class Simulator:
    """A discrete-event simulator.

    The simulator owns:

    * the virtual clock (:attr:`now`, seconds),
    * the event queue,
    * the process table,
    * deterministic random streams (:attr:`rng`).

    Observers (a :class:`~repro.sim.watchdog.Watchdog`, a metrics
    registry) belong to the run that builds them, not to the simulator.

    Typical usage::

        sim = Simulator(seed=42)
        sim.spawn(my_process(sim), name="worker-0")
        sim.run(until=100.0)

    Slotted: the compiled segment path (``repro.net._segpath``) reads
    the clock, the event queue and the step counters by slot offset.
    """

    __slots__ = ("now", "events", "rng", "processes",
                 "_running", "_steps", "_elided")

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.events = EventQueue()
        self.rng = RandomStreams(seed)
        self.processes: list[Process] = []
        self._running = False
        self._steps = 0
        # Events the flow-level fast path proved unnecessary and credited
        # straight into _steps (see VirtualOutputPort.admit): _steps stays
        # byte-identical to packet granularity, _elided says how many of
        # those logical events never hit the heap (profiling aid).
        self._elided = 0

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Pushes onto the heap inline (schedule is the single most-called
        kernel entry point; an extra call layer was measurable).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        time = self.now + delay
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        events = self.events
        seq = events._seq
        events._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heappush(events._heap, (time, priority, seq, ev))
        events._live += 1
        return ev

    def schedule_fire(self, delay: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Fire-and-forget schedule for the per-segment hot path.

        Pushes a raw heap entry instead of an :class:`Event`, skipping the
        object allocation — for callbacks that are *never cancelled*
        (segment serializations, RTO timers, process resumes).  Normal
        priority only; returns nothing, so there is no handle to cancel.
        Callers guarantee ``delay >= 0``.
        """
        time = self.now + delay
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        events = self.events
        seq = events._seq
        events._seq = seq + 1
        heappush(events._heap, (time, 0, seq, None, fn, args))
        events._live += 1

    def schedule_at_fire(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Absolute-time variant of :meth:`schedule_fire` (``time >= now``)."""
        if time < self.now or time != time:
            raise SimulationError(
                f"cannot schedule into the past (time={time!r} < now={self.now!r})"
            )
        events = self.events
        seq = events._seq
        events._seq = seq + 1
        heappush(events._heap, (time, 0, seq, None, fn, args))
        events._live += 1

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        self.events.cancel(event)

    # -- processes ----------------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Create a process from a generator; it starts at the current time."""
        proc = Process(self, gen, name)
        self.processes.append(proc)
        # Start via the queue so that spawns made while the loop is running
        # keep globally deterministic ordering.
        self.schedule_fire(0.0, proc._start)
        return proc

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_steps``.

        Returns the final clock value.  When stopping at ``until`` the clock
        is advanced to exactly ``until`` (pending events stay queued).

        ``deadline`` is a :func:`time.monotonic` value: the loop reads
        the wall clock once every :data:`DEADLINE_STRIDE` dispatched
        events and raises :class:`~repro.errors.DeadlineExceeded` once
        it has passed.  The raise comes from the loop, between two
        callbacks, so it is never wrapped in a ``ProcessError`` and the
        simulator is left as after any stopped run.  A deadline cannot
        bound a single callback that never returns.

        The loop pops heap entries directly — one event dispatch is a
        handful of C-level operations plus the callback itself.
        ``EventQueue._compact`` rebuilds the heap *in place*, so the local
        alias stays valid.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # Pause the cyclic garbage collector for the duration of the loop:
        # event dispatch allocates heavily (heap entries, segments, args
        # tuples) and gen-0 collections were ~15% of wall time on the
        # fig2 benchmarks.  Allocation is bounded by the live event set,
        # so deferring collection to the caller's next threshold is safe.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            events = self.events
            heap = events._heap
            pop = heappop
            if until is None and max_steps is None and deadline is None:
                # Tight loop: heap pops are nondecreasing by construction
                # (every schedule entry point rejects past times), raw
                # entries carry no Event to bookkeep, and there is no
                # bound to check.  This is the path every experiment run
                # takes; events/sec lives here.
                while heap:
                    entry = pop(heap)
                    ev = entry[3]
                    if ev is None:
                        events._live -= 1
                        self.now = entry[0]
                        self._steps += 1
                        entry[4](*entry[5])
                    elif ev.cancelled:
                        events._tombstones -= 1
                    else:
                        ev.pending = False
                        events._live -= 1
                        self.now = entry[0]
                        self._steps += 1
                        ev.fn(*ev.args)
                return self.now
            steps = 0
            next_check = DEADLINE_STRIDE if deadline is not None else -1  # -1: never
            while heap:
                entry = heap[0]
                ev = entry[3]
                if ev is not None and ev.cancelled:
                    pop(heap)
                    events._tombstones -= 1
                    continue
                t = entry[0]
                if until is not None and t > until:
                    self.now = until
                    return until
                pop(heap)
                events._live -= 1
                if ev is None:
                    fn, args = entry[4], entry[5]
                else:
                    ev.pending = False
                    fn, args = ev.fn, ev.args
                if t < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = t
                self._steps += 1
                fn(*args)
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    raise SimulationError(
                        f"simulation exceeded max_steps={max_steps} (livelock?)"
                    )
                if steps == next_check:
                    if monotonic() >= deadline:
                        raise DeadlineExceeded(
                            f"wall-clock deadline passed at t={self.now!r} "
                            f"after {steps} events"
                        )
                    next_check += DEADLINE_STRIDE
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    @property
    def steps_executed(self) -> int:
        """Number of logical events processed so far.

        Includes events the flow-level fast path advanced analytically
        (:attr:`events_elided`), so the count — exported as
        ``sim_events`` and pinned by the result content hashes — is
        identical whether the fabric runs at packet or flow granularity.
        """
        return self._steps

    @property
    def events_elided(self) -> int:
        """Logical events the fast path never had to dispatch."""
        return self._elided

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator now={self.now:.6f} pending={len(self.events)}>"
