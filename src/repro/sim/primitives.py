"""Synchronization primitives for simulated processes.

All primitives hand out :class:`~repro.sim.process.Waitable` tokens from
their blocking operations, so they compose with the generator-process
protocol::

    msg = yield mailbox.get()
    value = yield signal
    values = yield AllOf([a, b])
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.process import Process, Waitable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _Suspend(Waitable):
    """A one-shot waitable completed by its owner primitive.

    The primitive calls :meth:`complete` (at most once); if the process has
    not yet yielded on the token, the value is stashed and delivered upon
    registration.
    """

    __slots__ = ("_sim", "_proc", "_done", "_value", "_has_value")

    def __init__(self) -> None:
        self._sim: Optional["Simulator"] = None
        self._proc: Optional[Process] = None
        self._done = False
        self._has_value = False
        self._value: Any = None

    def _register(self, sim: "Simulator", proc: Process) -> None:
        if self._proc is not None:
            raise SimulationError("a suspension token can only be awaited once")
        self._sim = sim
        self._proc = proc
        if self._has_value:
            # Completed before the process yielded on it: resume next tick.
            sim.schedule_fire(0.0, proc._resume, (self._value,))

    def complete(self, sim: "Simulator", value: Any = None) -> None:
        if self._done:
            raise SimulationError("suspension token completed twice")
        self._done = True
        if self._proc is not None:
            sim.schedule_fire(0.0, self._proc._resume, (value,))
        else:
            self._has_value = True
            self._value = value


class Signal(Waitable):
    """A one-shot broadcast event.

    Any number of processes may ``yield signal`` (the Signal itself is the
    waitable); :meth:`fire` wakes them all with the same value.  Processes
    that wait after the signal has fired resume immediately.
    """

    __slots__ = ("_fired", "_value", "_waiters")

    def __init__(self) -> None:
        self._fired = False
        self._value: Any = None
        self._waiters: List[tuple["Simulator", Process]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def _register(self, sim: "Simulator", proc: Process) -> None:
        if self._fired:
            sim.schedule_fire(0.0, proc._resume, (self._value,))
        else:
            self._waiters.append((sim, proc))

    def fire(self, value: Any = None) -> None:
        """Wake all current and future waiters.  Idempotent-hostile: firing
        twice is an error, as it almost always hides a logic bug."""
        if self._fired:
            raise SimulationError("Signal fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for sim, proc in waiters:
            sim.schedule_fire(0.0, proc._resume, (value,))


class Mailbox:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns a waitable that yields the oldest
    message.  Multiple concurrent getters are served in FIFO order.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Suspend] = deque()

    def put(self, item: Any) -> None:
        getters = self._getters
        if getters:
            tok = getters.popleft()
            proc = tok._proc
            if proc is None:
                tok.complete(self.sim, item)
            else:
                # _Suspend.complete inlined for a registered waiter (a
                # queued token was never completed): one frame per
                # delivered message.
                tok._done = True
                self.sim.schedule_fire(0.0, proc._resume, (item,))
        else:
            self._items.append(item)

    def get(self) -> Waitable:
        tok = _Suspend()
        if self._items:
            tok.complete(self.sim, self._items.popleft())
        else:
            self._getters.append(tok)
        return tok

    def __len__(self) -> int:
        return len(self._items)


class AllOf(Waitable):
    """Wait until all given :class:`Signal` objects have fired.

    Delivers a list of their values in the order supplied.
    """

    __slots__ = ("signals",)

    def __init__(self, signals: List[Signal]) -> None:
        self.signals = list(signals)

    def _register(self, sim: "Simulator", proc: Process) -> None:
        pending = [s for s in self.signals if not s.fired]
        if not pending:
            sim.schedule_fire(0.0, proc._resume, ([s.value for s in self.signals],))
            return

        remaining = {"n": len(pending)}

        def watcher(signal: Signal):
            yield signal
            remaining["n"] -= 1
            if remaining["n"] == 0:
                proc._resume([s.value for s in self.signals])

        for s in pending:
            sim.spawn(watcher(s), name="allof-watcher")
