"""Priority-assignment policies.

The paper "does not constrain how priorities are assigned" (§IV-B) and
suggests two concrete choices:

* random assignment — fine for grid search, where every job's model
  update has the same size;
* smallest-update-first — when concurrent jobs have different model
  sizes, prioritizing the smaller update avoids head-of-line blocking by
  a large one.

A policy ranks the jobs contending on one host; rank 0 is the highest
priority.  Policies must be deterministic given the simulator's seeded
RNG so experiments are reproducible.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.dl.application import Application
    from repro.sim.rng import RandomStreams


class PriorityPolicy(Protocol):
    """Orders contending jobs; earlier in the returned list = higher prio."""

    def rank(
        self, apps: Sequence["Application"], rng: "RandomStreams"
    ) -> List["Application"]: ...


class ArrivalOrderPolicy:
    """First-arrived, highest-priority (deterministic default)."""

    def rank(self, apps, rng):
        return sorted(apps, key=lambda a: (a.spec.arrival_time, a.spec.job_id))


class RandomPolicy:
    """Uniformly random ranking — the paper's grid-search suggestion.

    Draws from the named stream ``tensorlights/random-policy`` so the
    shuffle is reproducible per seed and independent of other consumers.
    """

    def rank(self, apps, rng):
        ordered = sorted(apps, key=lambda a: a.spec.job_id)
        return rng.shuffle("tensorlights/random-policy", ordered)


class SmallestUpdateFirstPolicy:
    """Smaller model update first, to avoid head-of-line blocking.

    Ties (grid search: identical models) break by arrival then id.
    """

    def rank(self, apps, rng):
        return sorted(
            apps,
            key=lambda a: (a.spec.update_bytes, a.spec.arrival_time, a.spec.job_id),
        )
