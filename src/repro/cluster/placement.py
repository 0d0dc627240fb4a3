"""PS placement specifications — Table I of the paper.

For ``M`` concurrent jobs, a placement is written ``m_1, ..., m_K`` with
``sum(m_k) == M``: ``m_k`` jobs colocate their PSes on host ``k``.  Workers
of each job are spread one-per-host over all hosts *except* the job's PS
host (paper §III, Task placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import PlacementError

#: Table I — the eight placements studied for 21 concurrent jobs.
TABLE1_PLACEMENTS: Dict[int, Tuple[int, ...]] = {
    1: (21,),
    2: (5, 16),
    3: (10, 11),
    4: (7, 7, 7),
    5: (5, 5, 5, 6),
    6: (4, 4, 4, 4, 5),
    7: (3, 3, 3, 3, 3, 3, 3),
    8: tuple([1] * 21),
}


@dataclass(frozen=True)
class PlacementSpec:
    """A concrete assignment of PS tasks to hosts.

    Attributes:
        groups: ``groups[k]`` = number of jobs whose PS lives on host ``k``
            (hosts are assigned in id order by the scheduler).
    """

    groups: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise PlacementError("placement needs at least one group")
        if any(g < 1 for g in self.groups):
            raise PlacementError(f"group sizes must be >= 1: {self.groups}")

    @property
    def n_jobs(self) -> int:
        return sum(self.groups)

    @property
    def n_ps_hosts(self) -> int:
        return len(self.groups)

    @property
    def max_colocation(self) -> int:
        """The heaviest PS colocation — the contention knob."""
        return max(self.groups)

    def ps_host_of_job(self, job_index: int) -> int:
        """Index (0-based) of the PS host for the ``job_index``-th job."""
        if not 0 <= job_index < self.n_jobs:
            raise PlacementError(
                f"job index {job_index} out of range for {self.n_jobs} jobs"
            )
        cum = 0
        for host_idx, count in enumerate(self.groups):
            cum += count
            if job_index < cum:
                return host_idx
        raise AssertionError("unreachable")

    def describe(self) -> str:
        """Table I notation, e.g. ``"5, 16"`` or ``"1, ..., 1"``."""
        if len(self.groups) > 6 and len(set(self.groups)) == 1:
            return f"{self.groups[0]}, ..., {self.groups[0]} ({len(self.groups)}x)"
        return ", ".join(str(g) for g in self.groups)

    def __str__(self) -> str:
        return self.describe()


def placement_by_index(index: int, n_jobs: int = 21) -> PlacementSpec:
    """The Table I placement ``index`` (1-8), rescaled if ``n_jobs != 21``.

    Rescaling keeps the *shape*: the same number of groups with sizes
    proportionally scaled, so scaled-down experiments exercise the same
    contention structure.
    """
    if index not in TABLE1_PLACEMENTS:
        raise PlacementError(
            f"unknown placement index {index}; Table I defines {sorted(TABLE1_PLACEMENTS)}"
        )
    groups = TABLE1_PLACEMENTS[index]
    if n_jobs == 21:
        return PlacementSpec(groups)
    if index == 1:
        return PlacementSpec((n_jobs,))
    if index == 8:
        return PlacementSpec(tuple([1] * n_jobs))
    # proportional split over the same number of groups
    k = len(groups)
    if n_jobs < k:
        raise PlacementError(
            f"cannot scale placement #{index} ({k} groups) down to {n_jobs} jobs"
        )
    base, extra = divmod(n_jobs, k)
    scaled = tuple(base + (1 if i < extra else 0) for i in range(k))
    return PlacementSpec(tuple(sorted(scaled)))
