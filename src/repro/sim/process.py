"""Generator-based simulated processes.

A *process* is a Python generator that yields :class:`Waitable` objects.
When the waitable fires, the kernel resumes the generator, sending the
waitable's value as the result of the ``yield`` expression::

    def worker(sim):
        msg = yield mailbox.get()       # blocks until a message arrives
        yield Timeout(compute_time)     # blocks for simulated time
        return msg                      # becomes Process.result

Processes cannot be pre-empted; cooperation points are exactly the yields.
"""

from __future__ import annotations

import types
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

ProcessGen = Generator["Waitable", Any, Any]


class Waitable:
    """Something a process can ``yield`` on.

    Subclasses implement :meth:`_register`, which must arrange for
    ``proc._resume(value)`` (or ``proc._throw(exc)``) to be called exactly
    once at some future simulated time.
    """

    __slots__ = ()

    def _register(self, sim: "Simulator", proc: "Process") -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the waiting process after ``delay`` simulated seconds.

    The optional ``value`` is delivered as the result of the yield.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = delay
        self.value = value

    def _register(self, sim: "Simulator", proc: "Process") -> None:
        # Resumes are never cancelled (kill() flips `alive` instead), so
        # the allocation-free fire path applies.
        sim.schedule_fire(self.delay, proc._resume, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay!r})"


class Process:
    """A running simulated process wrapping a generator.

    Attributes:
        name: label used in traces and error messages.
        alive: False once the generator has returned or raised.
        result: the generator's return value (valid once not alive).
    """

    __slots__ = ("sim", "name", "_gen", "alive", "result", "error", "_watchers")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "proc") -> None:
        if not isinstance(gen, types.GeneratorType):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__} "
                "(did you call the function with its arguments?)"
            )
        self.sim = sim
        self.name = name
        self._gen: Optional[ProcessGen] = gen
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._watchers: list = []  # Signals fired on completion

    # -- kernel interface ------------------------------------------------

    def _start(self) -> None:
        """First resume; scheduled by Simulator.spawn at spawn time."""
        self._resume(None)

    def _resume(self, value: Any = None) -> None:
        if not self.alive:  # e.g. resumed after a kill
            return
        gen = self._gen
        assert gen is not None
        try:
            waitable = gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - report with context
            self._finish(None, exc)
            raise ProcessError(f"process {self.name!r} failed: {exc!r}") from exc
        # _block_on inlined for the valid case (once per resume); it
        # stays the error path.
        if isinstance(waitable, Waitable):
            waitable._register(self.sim, self)
        else:
            self._block_on(waitable)

    def _throw(self, exc: BaseException) -> None:
        """Resume the process by raising ``exc`` inside the generator."""
        if not self.alive:
            return
        gen = self._gen
        assert gen is not None
        try:
            waitable = gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(None, err)
            if err is exc:  # process did not handle it
                raise ProcessError(f"process {self.name!r} killed by {exc!r}") from exc
            raise ProcessError(f"process {self.name!r} failed: {err!r}") from err
        self._block_on(waitable)

    def _block_on(self, waitable: Any) -> None:
        if not isinstance(waitable, Waitable):
            exc = SimulationError(
                f"process {self.name!r} yielded {waitable!r}, expected a Waitable"
            )
            self._finish(None, exc)
            raise exc
        waitable._register(self.sim, self)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.alive = False
        self.result = result
        self.error = error
        self._gen = None
        watchers, self._watchers = self._watchers, []
        for signal in watchers:
            signal.fire(result)

    # -- public API -------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process without resuming it again.

        Pending waitables may still call ``_resume`` later; those calls are
        ignored because ``alive`` is already False.
        """
        if self.alive:
            self._finish(None, None)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
