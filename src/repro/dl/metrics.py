"""Per-job metrics: JCT and barrier wait times.

The paper instruments TensorFlow to "measure the elapsed time between a
worker entering the barrier and exiting the barrier" and aggregates, per
barrier, the average and the variance across the job's workers (§III,
Observation #2).  :class:`BarrierSeries` reproduces that aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import WorkloadError


class BarrierSeries:
    """Barrier wait samples, indexed by (iteration, worker)."""

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._waits: Dict[int, List[float]] = {}

    def record(self, iteration: int, wait: float) -> None:
        if wait < 0:
            raise WorkloadError(f"negative barrier wait {wait} at iter {iteration}")
        self._waits.setdefault(iteration, []).append(wait)

    def waits(self) -> List[float]:
        """Every recorded wait, barrier by barrier (each in record order)."""
        return [w for waits in self._waits.values() for w in waits]

    @property
    def n_barriers(self) -> int:
        return len(self._waits)

    def complete_barriers(self) -> List[int]:
        """Iterations for which every worker reported a wait."""
        return sorted(i for i, w in self._waits.items() if len(w) == self.n_workers)

    def per_barrier_mean(self) -> np.ndarray:
        """Average wait per complete barrier (one sample per barrier)."""
        return np.array(
            [np.mean(self._waits[i]) for i in self.complete_barriers()], dtype=float
        )

    def per_barrier_variance(self) -> np.ndarray:
        """Population variance of waits per complete barrier.

        This is the paper's "standard variance" indicator of stragglers:
        stragglers wait little while their peers wait long, inflating the
        per-barrier variance.
        """
        return np.array(
            [np.var(self._waits[i]) for i in self.complete_barriers()], dtype=float
        )


@dataclass
class JobMetrics:
    """Everything measured about one job run."""

    job_id: str
    n_workers: int
    arrival_time: float = 0.0
    start_time: float = -1.0
    end_time: float = -1.0
    iterations_done: int = 0
    local_steps: Dict[str, int] = field(default_factory=dict)  # worker -> steps
    #: per-barrier wait samples; in async mode the same series records the
    #: per-step model-wait (no barrier exists, but the measurement — time
    #: from gradient sent to next model received — is identical)
    barriers: BarrierSeries = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.barriers is None:
            self.barriers = BarrierSeries(self.n_workers)

    @property
    def finished(self) -> bool:
        return self.end_time >= 0

    @property
    def jct(self) -> float:
        """Job completion time: launch to final global step."""
        if not self.finished:
            raise WorkloadError(f"{self.job_id} has not finished")
        return self.end_time - self.arrival_time

    @property
    def global_steps(self) -> int:
        return sum(self.local_steps.values())

    def summary(self) -> dict:
        out = {
            "job_id": self.job_id,
            "jct": self.jct if self.finished else None,
            "iterations": self.iterations_done,
            "global_steps": self.global_steps,
        }
        means = self.barriers.per_barrier_mean()
        if means.size:
            out["barrier_wait_mean"] = float(means.mean())
            out["barrier_wait_var_mean"] = float(
                self.barriers.per_barrier_variance().mean()
            )
        return out
