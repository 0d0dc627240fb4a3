"""Processor-sharing CPU model.

A host CPU with ``cores`` cores runs any number of concurrent *jobs* (in
the queueing-theory sense: one compute request each).  When ``n`` jobs are
active, each progresses at rate ``min(1, cores / n)`` core-seconds per
second — the classic egalitarian processor-sharing model, a good fit for
CPU-bound workers time-shared by the OS scheduler.

Completion times are recomputed whenever the active set changes.  Busy
core-time is accumulated for the vmstat-style utilization telemetry.
"""

from __future__ import annotations

import itertools
from typing import Dict, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.primitives import _Suspend
from repro.sim.process import Waitable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _Job:
    __slots__ = ("jid", "remaining", "token")

    def __init__(self, jid: int, demand: float, token: _Suspend) -> None:
        self.jid = jid
        self.remaining = demand
        self.token = token


class ProcessorSharingCPU:
    """An M-core processor-sharing server."""

    def __init__(self, sim: "Simulator", cores: int = 1, name: str = "cpu") -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._jobs: Dict[int, _Job] = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        self._next_event = None
        self.busy_core_time = 0.0  # core-seconds of actual work done
        self.speed = 1.0  # fault-injection straggler knob (1.0 = healthy)

    # -- public API -------------------------------------------------------

    def run(self, demand_core_seconds: float) -> Waitable:
        """Submit ``demand_core_seconds`` of work; yields when finished.

        Zero-demand requests complete immediately (next tick).
        """
        if demand_core_seconds < 0:
            raise SimulationError(f"negative CPU demand: {demand_core_seconds}")
        token = _Suspend()
        if demand_core_seconds == 0:
            token.complete(self.sim)
            return token
        self._advance()
        job = _Job(next(self._ids), demand_core_seconds, token)
        self._jobs[job.jid] = job
        self._reschedule()
        return token

    @property
    def rate_per_job(self) -> float:
        """Current per-job service rate in core-seconds per second."""
        n = len(self._jobs)
        if n == 0:
            return 0.0
        return min(1.0, self.cores / n) * self.speed

    def set_speed(self, speed: float) -> None:
        """Scale every job's service rate (fault-injection straggler).

        In-progress work is advanced at the old speed up to now, then
        completion events are re-derived at the new speed.
        """
        if speed <= 0:
            raise SimulationError(f"CPU speed must be > 0, got {speed}")
        self._advance()
        self.speed = speed
        self._reschedule()

    def utilization_snapshot(self) -> float:
        """Cumulative busy core-seconds (including work in progress)."""
        self._advance()
        return self.busy_core_time

    # -- internals ------------------------------------------------------------

    def _advance(self) -> None:
        """Apply progress between the last update and now."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        # rate_per_job inlined (same float expression; this runs on every
        # CPU completion and submission).
        n = len(jobs)
        rate = min(1.0, self.cores / n) * self.speed
        done = dt * rate
        finished = None
        for job in jobs.values():
            job.remaining -= done
            if job.remaining <= 1e-12:
                if finished is None:
                    finished = [job]
                else:
                    finished.append(job)
        self.busy_core_time += done * n
        if finished is not None:
            for job in finished:
                del jobs[job.jid]
                job.token.complete(self.sim)

    def _reschedule(self) -> None:
        """(Re)arm the completion event for the earliest-finishing job."""
        if self._next_event is not None:
            self.sim.cancel(self._next_event)
            self._next_event = None
        jobs = self._jobs
        if not jobs:
            return
        n = len(jobs)
        rate = min(1.0, self.cores / n) * self.speed
        shortest = None
        for job in jobs.values():
            r = job.remaining
            if shortest is None or r < shortest:
                shortest = r
        eta = shortest / rate
        self._next_event = self.sim.schedule(eta, self._on_completion)

    def _on_completion(self) -> None:
        self._next_event = None
        self._advance()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CPU {self.name} cores={self.cores} active={len(self._jobs)}>"
