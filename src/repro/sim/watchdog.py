"""Runtime invariant watchdog: self-checks for a live simulation.

A :class:`Watchdog` belongs to one run, not to its
:class:`~repro.sim.kernel.Simulator`: ``materialize(watchdog=...)``
builds one only when asked and keeps it as ``Runtime.watchdog``.  It
runs a set of registered *checks* (read-only predicates over existing
counters and data structures) from a low-priority heartbeat event and
once more at :meth:`finalize`, converting silent corruption —
leaked bytes, stuck qdiscs, port leaks, tc drift, livelocks — into
structured :class:`WatchdogViolation` reports, which the metrics scrape
counts at run end.

Layers register their own checks (see :mod:`repro.net.invariants`,
:mod:`repro.dl.invariants`, :mod:`repro.tensorlights.invariants`); the
watchdog itself only knows about the event heap and the heartbeat.

Modes:

* ``warn``  — violations are recorded (and surfaced as
  :class:`RuntimeWarning`, capped) but the run continues; production
  sweeps degrade gracefully.
* ``raise`` — the first violation raises :class:`WatchdogError` on the
  spot; CI runs strict.

Determinism: the heartbeat never touches the RNG, runs at
``PRIORITY_LOW`` (after every real event at the same timestamp), and
self-compensates the kernel's step counter, so enabling the watchdog
leaves ``sim_events`` — and therefore pinned result content hashes —
unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import WatchdogError
from repro.sim.events import PRIORITY_LOW, _MIN_COMPACT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Valid watchdog modes (a run without a watchdog simply builds none).
MODES = ("warn", "raise")

#: One check: returns an iterable of ``(detail, data)`` violation pairs
#: (empty / ``None`` when the invariant holds).
CheckFn = Callable[[], Optional[Iterable[Tuple[str, Dict[str, Any]]]]]


@dataclass(frozen=True)
class WatchdogViolation:
    """One invariant violation, as structured data.

    ``check`` names the registered check (``"byte_conservation"``,
    ``"stall"``, ...); ``t`` is the simulated time of detection;
    ``data`` carries check-specific measurements (JSON-safe scalars).
    """

    check: str
    detail: str
    t: float
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "detail": self.detail,
            "t": self.t,
            "data": dict(self.data),
        }

    def describe(self) -> str:
        return f"[{self.check}] t={self.t:.6f}: {self.detail}"


class _Check:
    __slots__ = ("name", "fn", "final_only")

    def __init__(self, name: str, fn: CheckFn, final_only: bool) -> None:
        self.name = name
        self.fn = fn
        self.final_only = final_only


class Watchdog:
    """Periodic + final invariant checker for one simulator.

    Usage (the experiment runtime does all of this)::

        watchdog = Watchdog(sim, "warn")
        watchdog.register("my_invariant", check_fn)
        watchdog.start()              # schedules the heartbeat
        sim.run()
        violations = watchdog.finalize()

    Args:
        mode: ``"warn"`` or ``"raise"``.
        interval: heartbeat period in simulated seconds.
        stall_time: stall deadline: this much simulated time with zero
            progress ...
        stall_events: ... AND this many executed events with zero progress.
    """

    def __init__(
        self,
        sim: "Simulator",
        mode: str,
        interval: float = 1.0,
        stall_time: float = 60.0,
        stall_events: int = 50_000,
    ) -> None:
        if mode not in MODES:
            raise WatchdogError(
                f"watchdog mode must be one of {MODES}, got {mode!r}"
            )
        if interval <= 0:
            raise WatchdogError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.mode = mode
        self.interval = interval
        self.stall_time = stall_time
        self.stall_events = stall_events
        #: cap on RuntimeWarnings emitted in ``warn`` mode (reports are
        #: always recorded; the cap only limits console noise)
        self.max_warnings = 20
        self.violations: List[WatchdogViolation] = []
        self._checks: List[_Check] = []
        self._progress_probe: Optional[Callable[[], float]] = None
        self._warned = 0
        self._beating = False
        self._finalized = False
        # stall bookkeeping
        self._last_progress_value: Optional[float] = None
        self._last_progress_time = 0.0
        self._last_progress_steps = 0
        # built-in heap check state: peak live events seen, so tombstone
        # growth is bounded against the heap's own history, not its
        # (possibly drained) present
        self._peak_live = 0
        self.register("event_heap", self._check_event_heap)

    # -- configuration ------------------------------------------------------

    def register(self, name: str, fn: CheckFn, final_only: bool = False) -> None:
        """Add a check.  ``final_only`` checks run only at :meth:`finalize`
        (quiescence invariants that legitimately fail mid-run)."""
        self._checks.append(_Check(name, fn, final_only))

    def set_progress_probe(self, fn: Callable[[], float]) -> None:
        """Install the monotone progress measure stall detection watches.

        Any value change counts as progress; delivered-message counts are
        the canonical probe (see :func:`repro.net.invariants.progress_probe`).
        """
        self._progress_probe = fn

    # -- reporting ----------------------------------------------------------

    def report(self, check: str, detail: str, **data: Any) -> None:
        """Record one violation; raise it in ``raise`` mode."""
        violation = WatchdogViolation(
            check=check, detail=detail, t=self.sim.now, data=data
        )
        self.violations.append(violation)
        if self.mode == "raise":
            err = WatchdogError(f"watchdog violation {violation.describe()}")
            err.violation = violation
            err.violations = list(self.violations)
            raise err
        if self._warned < self.max_warnings:
            self._warned += 1
            warnings.warn(
                f"watchdog: {violation.describe()}", RuntimeWarning,
                stacklevel=2,
            )

    # -- the heartbeat -------------------------------------------------------

    def start(self) -> None:
        """Schedule the periodic heartbeat (no-op when already beating)."""
        if self._beating:
            return
        self._beating = True
        self.sim.schedule(self.interval, self._heartbeat, priority=PRIORITY_LOW)

    def _heartbeat(self) -> None:
        sim = self.sim
        # Observability, not simulation: a heartbeat must not change
        # ``sim_events`` (it is part of the result content hash).
        sim._steps -= 1
        if not sim.events:
            # Nothing left but us: stop, or we would keep the sim alive.
            self._beating = False
            return
        self._run_checks(final=False)
        self._check_stall()
        sim.schedule(self.interval, self._heartbeat, priority=PRIORITY_LOW)

    def _run_checks(self, final: bool) -> None:
        for check in self._checks:
            if check.final_only and not final:
                continue
            found = check.fn()
            if not found:
                continue
            for detail, data in found:
                self.report(check.name, detail, **data)

    def _check_stall(self) -> None:
        probe = self._progress_probe
        if probe is None:
            return
        value = probe()
        now = self.sim.now
        steps = self.sim._steps
        if value != self._last_progress_value:
            self._last_progress_value = value
            self._last_progress_time = now
            self._last_progress_steps = steps
            return
        if (
            now - self._last_progress_time >= self.stall_time
            and steps - self._last_progress_steps >= self.stall_events
        ):
            self.report(
                "stall",
                f"no progress for {now - self._last_progress_time:.3f}s "
                f"simulated time and {steps - self._last_progress_steps} "
                f"events (queue has {len(self.sim.events)} pending)",
                idle_seconds=now - self._last_progress_time,
                idle_events=steps - self._last_progress_steps,
                pending_events=len(self.sim.events),
            )
            # warn mode: rearm instead of re-reporting every beat
            self._last_progress_time = now
            self._last_progress_steps = steps

    # -- built-in check ------------------------------------------------------

    def _check_event_heap(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Event-heap bookkeeping and tombstone-ratio invariants.

        ``heap_size`` must equal live + tombstones exactly, and lazy-cancel
        tombstones must stay bounded by the compaction policy: never more
        than ``max(_MIN_COMPACT, peak live)`` plus slack (compaction runs
        inside ``cancel`` whenever tombstones exceed both the floor and
        the live count, so a regression there shows up as runaway
        tombstone growth).
        """
        events = self.sim.events
        out: List[Tuple[str, Dict[str, Any]]] = []
        live = len(events)
        if live > self._peak_live:
            self._peak_live = live
        heap_size = events.heap_size
        tombstones = heap_size - live
        if tombstones != events._tombstones:
            out.append((
                f"heap bookkeeping skew: heap={heap_size} live={live} "
                f"recorded tombstones={events._tombstones}",
                {"heap_size": heap_size, "live": live,
                 "tombstones": events._tombstones},
            ))
        bound = max(_MIN_COMPACT, self._peak_live) + 1
        if tombstones > bound:
            out.append((
                f"tombstone growth: {tombstones} tombstones exceed bound "
                f"{bound} (peak live {self._peak_live})",
                {"tombstones": tombstones, "bound": bound,
                 "peak_live": self._peak_live},
            ))
        return out

    # -- finalize ------------------------------------------------------------

    def finalize(self) -> List[WatchdogViolation]:
        """Run every check one last time (quiescence invariants included).

        Idempotent; returns all violations recorded over the run.
        """
        if not self._finalized:
            self._finalized = True
            self._run_checks(final=True)
        return list(self.violations)
