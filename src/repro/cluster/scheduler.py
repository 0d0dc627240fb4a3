"""Cluster scheduler: assigns PS and worker tasks to hosts.

The baseline scheduler mimics YARN/Borg as described in the paper §II: it
is *agnostic of task functionality* (PS vs worker), so PS colocation
occurs naturally.  Table I placements and the contention-aware
placement policies (:mod:`repro.placement.policies`) hand the scheduler
a ready host-index assignment (:meth:`ClusterScheduler.ps_hosts_for_assignment`);
otherwise a policy picks each PS host online:

* ``random`` — place each PS on a uniformly random host (what an
  oblivious scheduler effectively does);
* ``spread`` — least-loaded host first (the default);
* ``ps_aware`` — the paper's §VII future-work extension: like ``spread``
  but counts only *PS* tasks when balancing, guaranteeing minimal PS
  colocation.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RandomStreams


class SchedulingPolicy(str, enum.Enum):
    """How the cluster scheduler picks a PS host (see module docstring)."""

    RANDOM = "random"
    SPREAD = "spread"
    PS_AWARE = "ps_aware"


class ClusterScheduler:
    """Chooses a PS host per job; workers go one-per-host elsewhere."""

    def __init__(
        self,
        host_ids: Sequence[str],
        policy: SchedulingPolicy = SchedulingPolicy.SPREAD,
        rng: Optional["RandomStreams"] = None,
    ) -> None:
        if not host_ids:
            raise PlacementError("scheduler needs at least one host")
        self.host_ids = list(host_ids)
        self.policy = policy
        self.rng = rng
        # load accounting: total tasks and PS tasks per host
        self.task_load: Dict[str, int] = {h: 0 for h in self.host_ids}
        self.ps_load: Dict[str, int] = {h: 0 for h in self.host_ids}
        # stable tie-break rank: position in the caller's host order.
        # Sorting ties by the id *string* is deterministic but surprising
        # once ids stop sorting numerically ("h100" < "h11"); the rank
        # keeps equal-load ties in cluster order at any scale.
        self._rank: Dict[str, int] = {h: i for i, h in enumerate(self.host_ids)}

    # -- PS host selection ------------------------------------------------

    def ps_hosts_for_assignment(self, assignment: Sequence[int]) -> List[str]:
        """PS host id per job for a placement-policy host-index assignment.

        ``assignment[j]`` is an index into ``host_ids`` (the form
        :meth:`repro.placement.policies.PlacementPolicy.assign` returns);
        each PS counts towards its host's task and PS load.
        """
        hosts = []
        for job_idx, host_idx in enumerate(assignment):
            if not 0 <= host_idx < len(self.host_ids):
                raise PlacementError(
                    f"assignment for job {job_idx} names host index "
                    f"{host_idx}, cluster has {len(self.host_ids)} hosts"
                )
            host = self.host_ids[host_idx]
            hosts.append(host)
            self._account_ps(host)
        return hosts

    def pick_ps_host(self) -> str:
        """Choose a PS host under the scheduler's policy."""
        if self.policy == SchedulingPolicy.RANDOM:
            if self.rng is None:
                raise PlacementError("random policy requires an rng")
            idx = int(self.rng.stream("scheduler").integers(0, len(self.host_ids)))
            host = self.host_ids[idx]
        elif self.policy == SchedulingPolicy.SPREAD:
            host = min(self.host_ids,
                       key=lambda h: (self.task_load[h], self._rank[h]))
        elif self.policy == SchedulingPolicy.PS_AWARE:
            host = min(self.host_ids,
                       key=lambda h: (self.ps_load[h], self._rank[h]))
        else:  # pragma: no cover - enum is exhaustive
            raise PlacementError(f"unknown policy {self.policy}")
        self._account_ps(host)
        return host

    def _account_ps(self, host: str) -> None:
        self.task_load[host] += 1
        self.ps_load[host] += 1

    # -- worker placement ------------------------------------------------------

    def worker_hosts(self, ps_host: str, n_workers: int) -> List[str]:
        """One worker per host over all hosts except the PS host.

        Matches the paper: "its 20 workers are distributed evenly on the
        rest of 20 hosts, so that each host has one worker task [per job]".
        """
        candidates = [h for h in self.host_ids if h != ps_host]
        if n_workers > len(candidates):
            raise PlacementError(
                f"{n_workers} workers need {n_workers} non-PS hosts, have "
                f"{len(candidates)}"
            )
        chosen = candidates[:n_workers]
        for h in chosen:
            self.task_load[h] += 1
        return chosen

    # -- ring all-reduce placement ----------------------------------------

    def ring_hosts(self, n_members: int) -> List[str]:
        """Pick ``n_members`` distinct hosts for a ring all-reduce job.

        Least-loaded hosts first (ties by host id), mirroring ``spread``:
        an all-reduce job has no PS, so the scheduler just balances the
        member tasks.  The returned order *is* the ring order — member
        ``i`` sends its chunks to member ``(i + 1) % N``.
        """
        if n_members > len(self.host_ids):
            raise PlacementError(
                f"ring of {n_members} members needs {n_members} distinct "
                f"hosts, cluster has {len(self.host_ids)}"
            )
        chosen = sorted(self.host_ids,
                        key=lambda h: (self.task_load[h], self._rank[h]))
        chosen = chosen[:n_members]
        for h in chosen:
            self.task_load[h] += 1
        return chosen

    def release_ring(self, member_hosts: Sequence[str]) -> None:
        """Return a finished all-reduce job's load accounting."""
        for h in member_hosts:
            self.task_load[h] -= 1

    def release_job(self, ps_host: str, worker_hosts: Sequence[str]) -> None:
        """Return a finished job's load accounting."""
        self.task_load[ps_host] -= 1
        self.ps_load[ps_host] -= 1
        for h in worker_hosts:
            self.task_load[h] -= 1

    def colocation_profile(self) -> List[int]:
        """Current PS-colocation group sizes (Table I notation), sorted."""
        return sorted(v for v in self.ps_load.values() if v > 0)
