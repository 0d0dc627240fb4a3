"""Pluggable PS placement policies.

The cluster scheduler the paper assumes (YARN/Borg style) is *oblivious*:
it places parameter servers with no idea of the traffic they will emit,
and TensorLights then cleans up the resulting uplink contention at the
end host.  The policies here close that loop at placement time instead,
using the :class:`~repro.placement.fingerprint.JobFingerprint` of each
job's communication:

* :class:`ObliviousPolicy` — reproduce the Table I
  :class:`~repro.cluster.placement.PlacementSpec` exactly (today's
  behaviour, byte-identical results);
* :class:`LeastContendedPolicy` — communication-contention-aware
  balancing a la Wang et al. (arXiv 2002.10105): place each PS on the
  host whose uplink carries the least summed communication duty cycle;
* :class:`PhaseInterleavingPolicy` — CASSINI-style (arXiv 2308.00852)
  geometric phase assignment: model each job's communication burst as an
  arc on the unified iteration circle and pick, over every rotation of
  the host order, the assignment minimizing predicted burst overlap on
  shared uplinks;
* :class:`GreedyPackPolicy` — maximal-colocation baseline (fill hosts in
  order up to the forced minimum capacity); the anti-pattern end of the
  spectrum.

A policy is a stateless object with a :meth:`PlacementPolicy.assign`
method mapping a :class:`PlacementContext` to one host index per job.
Policies must be **deterministic**: the assignment is part of a scenario's
executed behaviour, and scenarios are content-addressed.  Select a policy
via ``ExperimentConfig.placement_policy``; register new ones with
:func:`register_placement_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.cluster.placement import PlacementSpec
from repro.errors import ConfigError, PlacementError
from repro.placement.fingerprint import JobFingerprint

#: The default policy name: today's Table I behaviour, byte-identical.
OBLIVIOUS = "oblivious"


@dataclass(frozen=True)
class PlacementJob:
    """One job as seen by a placement policy.

    Attributes:
        index: job index in arrival order (``job00`` = 0, ...).
        arrival_time: simulated launch time (jobs are staggered).
        fingerprint: the job shape's communication fingerprint, or
            ``None`` when the selected policy declares it does not need
            fingerprints (``needs_fingerprints = False``).
    """

    index: int
    arrival_time: float
    fingerprint: Optional[JobFingerprint] = None


@dataclass(frozen=True)
class PlacementContext:
    """Everything a policy may consult when assigning PS hosts.

    Attributes:
        host_ids: cluster hosts in canonical scheduler order; the
            assignment a policy returns indexes into this sequence.
        jobs: one :class:`PlacementJob` per job, in arrival order.
        baseline: the Table I :class:`PlacementSpec` the oblivious
            scheduler would have used (``None`` when it does not apply,
            e.g. an invalid index for a rescaled job count).
    """

    host_ids: Tuple[str, ...]
    jobs: Tuple[PlacementJob, ...]
    baseline: Optional[PlacementSpec] = None

    @property
    def n_hosts(self) -> int:
        return len(self.host_ids)


class PlacementPolicy:
    """Base class / protocol of a PS placement policy.

    Subclasses set :attr:`name` (the ``ExperimentConfig.placement_policy``
    value), optionally clear :attr:`needs_fingerprints`, and implement
    :meth:`assign`.  Policies are constructed fresh per materialization
    and must not keep state across calls.
    """

    #: registry name (the ``ExperimentConfig.placement_policy`` value)
    name: str = "?"
    #: whether :meth:`assign` reads ``job.fingerprint`` — when False, the
    #: runtime skips the profiling run entirely
    needs_fingerprints: bool = True

    def assign(self, ctx: PlacementContext) -> List[int]:
        """Return one ``host_ids`` index per job, in job order."""
        raise NotImplementedError


def _arc_overlap(a_start: float, a_len: float, b_start: float,
                 b_len: float, period: float) -> float:
    """Overlap length of two arcs on a circle of circumference ``period``.

    Arcs are ``[start, start + length)`` with lengths clamped to one full
    period; starts are normalized modulo the period.
    """
    a = a_start % period
    b = b_start % period
    a_len = min(a_len, period)
    b_len = min(b_len, period)
    total = 0.0
    for shift in (-period, 0.0, period):
        lo = max(a, b + shift)
        hi = min(a + a_len, b + shift + b_len)
        if hi > lo:
            total += hi - lo
    return total


def _require_fingerprints(ctx: PlacementContext, name: str) -> None:
    missing = [j.index for j in ctx.jobs if j.fingerprint is None]
    if missing:
        raise PlacementError(
            f"{name} placement needs a fingerprint for every job; "
            f"missing for jobs {missing}"
        )


class ObliviousPolicy(PlacementPolicy):
    """Reproduce the baseline Table I placement exactly.

    The default policy: ``materialize`` places every PS-architecture run
    through it unless the config names another, with the scenario's
    placement override (else the config's Table I index) as baseline.
    """

    name = OBLIVIOUS
    needs_fingerprints = False

    def assign(self, ctx: PlacementContext) -> List[int]:
        """One host index per job, exactly as the Table I spec dictates."""
        if ctx.baseline is None:
            raise PlacementError(
                "oblivious placement needs the baseline PlacementSpec"
            )
        if ctx.baseline.n_jobs != len(ctx.jobs):
            raise PlacementError(
                f"baseline covers {ctx.baseline.n_jobs} jobs, context has "
                f"{len(ctx.jobs)}"
            )
        return [ctx.baseline.ps_host_of_job(j.index) for j in ctx.jobs]


class LeastContendedPolicy(PlacementPolicy):
    """Minimize the summed communication duty cycle per uplink.

    Jobs are placed in arrival order; each PS goes to the host whose
    uplink currently carries the least total duty cycle (ties broken by
    host order).  With identical job shapes this degenerates to a spread
    — which is exactly the right call: the paper's Table I shows JCT
    degrading monotonically with PS colocation.  With heterogeneous
    shapes it packs light communicators together before splitting heavy
    ones, which a blind spread cannot do.
    """

    name = "least-contended"

    def assign(self, ctx: PlacementContext) -> List[int]:
        """Greedy weighted spread over the per-host duty-cycle load."""
        _require_fingerprints(ctx, self.name)
        load = [0.0] * ctx.n_hosts
        out: List[int] = []
        for job in ctx.jobs:
            best = min(range(ctx.n_hosts), key=lambda h: (load[h], h))
            load[best] += job.fingerprint.comm_duty_cycle
            out.append(best)
        return out


class PhaseInterleavingPolicy(PlacementPolicy):
    """CASSINI-style geometric phase interleaving.

    Each job's communication is an arc of length ``duty * period``
    starting at its launch phase on the unified iteration circle.  Jobs
    are placed in arrival order on the host minimizing the *predicted
    burst overlap* with the jobs already colocated there (then least
    duty-cycle load, then host order).  The greedy sweep is repeated for
    every rotation of the host preference order, and the rotation with
    the least total predicted overlap wins — the "angle assignment"
    step: with symmetric hosts any rotation ties and rotation 0 is kept,
    but capacity-constrained or pre-loaded host sets genuinely differ.
    """

    name = "phase-interleave"

    def assign(self, ctx: PlacementContext) -> List[int]:
        """Minimal-overlap assignment over all host-order rotations."""
        _require_fingerprints(ctx, self.name)
        best: Optional[Tuple[float, int, List[int]]] = None
        for rotation in range(max(1, ctx.n_hosts)):
            order = [(h + rotation) % ctx.n_hosts for h in range(ctx.n_hosts)]
            total, assignment = self._greedy(ctx, order)
            if best is None or (total, rotation) < (best[0], best[1]):
                best = (total, rotation, assignment)
        return best[2]

    def _greedy(
        self, ctx: PlacementContext, order: Sequence[int]
    ) -> Tuple[float, List[int]]:
        """One greedy sweep with hosts preferred in ``order``."""
        arcs: Dict[int, List[Tuple[float, float, float]]] = {
            h: [] for h in range(ctx.n_hosts)
        }
        load = [0.0] * ctx.n_hosts
        total = 0.0
        out: List[int] = []
        for job in ctx.jobs:
            fp = job.fingerprint
            start = fp.phase_at(job.arrival_time)
            length = fp.comm_seconds
            period = fp.iteration_period

            def added_overlap(h: int) -> float:
                return sum(
                    _arc_overlap(start, length, s, l, max(period, p))
                    for s, l, p in arcs[h]
                )

            best = min(
                order,
                key=lambda h: (added_overlap(h), load[h], order.index(h)),
            )
            total += added_overlap(best)
            arcs[best].append((start, length, period))
            load[best] += fp.comm_duty_cycle
            out.append(best)
        return total, out


class GreedyPackPolicy(PlacementPolicy):
    """Maximal-colocation baseline: every PS on the first host.

    The placement-policy analogue of the scheduler's ``pack`` policy
    (PS capacity is never the binding constraint, so bin-packing by
    request count never moves past host 0) and of Table I's placement #1
    — the maximally contended arrangement, bounding the study from below
    the way plain FIFO bounds the policy axis.
    """

    name = "greedy-pack"
    needs_fingerprints = False

    def assign(self, ctx: PlacementContext) -> List[int]:
        """Every job's PS on host 0, as the pack scheduler would."""
        if not ctx.n_hosts:
            raise PlacementError("greedy-pack needs at least one host")
        return [0 for _ in ctx.jobs]


#: name -> policy class; seeded with the built-ins, extended via
#: :func:`register_placement_policy`.
_REGISTRY: Dict[str, Type[PlacementPolicy]] = {}


def register_placement_policy(policy_cls: Type[PlacementPolicy]) -> Type[PlacementPolicy]:
    """Register a policy class under its ``name`` (usable as a decorator).

    Names are part of scenario identity (``ExperimentConfig.placement_policy``
    enters the content key), so pick a descriptive, stable name and never
    reuse one for different semantics.  Re-registering an existing name
    with a *different* class raises.
    """
    name = policy_cls.name
    if not name or name == "?":
        raise ConfigError(
            f"placement policy {policy_cls.__name__} must set a name"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not policy_cls:
        raise ConfigError(
            f"placement policy name {name!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[name] = policy_cls
    return policy_cls


for _cls in (ObliviousPolicy, LeastContendedPolicy,
             PhaseInterleavingPolicy, GreedyPackPolicy):
    register_placement_policy(_cls)


def get_placement_policy(name: str) -> PlacementPolicy:
    """A fresh instance of the registered policy ``name``."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown placement policy {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        )
    return cls()


def all_placement_policies() -> List[str]:
    """Registered policy names, sorted (CLI choices, docs)."""
    return sorted(_REGISTRY)
