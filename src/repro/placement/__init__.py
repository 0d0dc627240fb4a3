"""Contention-aware PS placement: fingerprints, policies, store.

The paper's TensorLights fixes uplink contention *after* an oblivious
scheduler has created it; this package closes the loop at placement time
(see ``docs/placement.md``).  Three layers:

* :mod:`repro.placement.fingerprint` — distill a job shape's
  communication behaviour into a :class:`JobFingerprint` via a cheap,
  deterministic solo profiling run read off the telemetry layer;
* :mod:`repro.placement.policies` — the :class:`PlacementPolicy`
  protocol and four built-ins (oblivious / least-contended /
  phase-interleave / greedy-pack), selected by
  ``ExperimentConfig.placement_policy``;
* :mod:`repro.placement.store` — the :class:`FingerprintStore`
  memoizing one profile per job shape.

See ``docs/placement.md`` for semantics and how to add a policy.
"""

from repro.placement.fingerprint import (
    PROFILE_ITERATIONS,
    PROFILE_SEED,
    JobFingerprint,
    profile_config,
    profile_job_shape,
    shape_key,
)
from repro.placement.policies import (
    OBLIVIOUS,
    GreedyPackPolicy,
    LeastContendedPolicy,
    ObliviousPolicy,
    PhaseInterleavingPolicy,
    PlacementContext,
    PlacementJob,
    PlacementPolicy,
    all_placement_policies,
    get_placement_policy,
    register_placement_policy,
)
from repro.placement.store import FingerprintStore

__all__ = [
    "FingerprintStore",
    "GreedyPackPolicy",
    "JobFingerprint",
    "LeastContendedPolicy",
    "OBLIVIOUS",
    "ObliviousPolicy",
    "PROFILE_ITERATIONS",
    "PROFILE_SEED",
    "PhaseInterleavingPolicy",
    "PlacementContext",
    "PlacementJob",
    "PlacementPolicy",
    "all_placement_policies",
    "get_placement_policy",
    "profile_config",
    "profile_job_shape",
    "register_placement_policy",
    "shape_key",
]
