"""Job communication fingerprints.

A :class:`JobFingerprint` distills one job shape's communication behaviour
into the four numbers a contention-aware placement policy needs (CASSINI,
arXiv 2308.00852; Wang et al., arXiv 2002.10105):

* **iteration_period** — the length of one steady-state training loop
  (broadcast, compute, gradient fan-in) when the job runs alone;
* **comm_duty_cycle** — the fraction of each period the job spends in its
  communication phase (measured from the barrier waits the job already
  records);
* **bytes_per_iteration** — egress bytes at the job's PS uplink per
  iteration (measured from the NIC transmit counters);
* **phase_offset** — where inside the period the communication burst
  sits, relative to the job's launch time.

Fingerprints come from a *profiling run*: one solo job of the same shape,
simulated for a handful of iterations under a fixed profile seed.  The
simulation is deterministic, so a fingerprint is a pure function of the
job shape — running the profile twice (or in two different campaign
worker processes) produces identical numbers, which is what lets
placement policies live inside cached scenarios.

Everything here is plain picklable data, so fingerprints cross process
boundaries; :class:`~repro.placement.store.FingerprintStore` memoizes
one per shape per process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig

#: Iterations of the profiling run.  Fixed (not inherited from the
#: profiled config) so every config that shares a job *shape* shares a
#: profile — and therefore a fingerprint — regardless of how long its
#: real runs are.  Must be >= 2: barrier waits only exist from the second
#: iteration on.
PROFILE_ITERATIONS = 6

#: Seed of the profiling run.  Fixed for the same reason: the fingerprint
#: describes the job shape, not one seeded instance of it.
PROFILE_SEED = 1729


@dataclass(frozen=True)
class JobFingerprint:
    """Compact, picklable description of one job shape's communication.

    Attributes:
        shape_key: content hash of the profiled job shape (see
            :func:`shape_key`) — the store key.
        iteration_period: steady-state seconds per training iteration of
            the solo job.
        comm_duty_cycle: fraction of the period spent communicating,
            in ``[0, 1]``.
        bytes_per_iteration: PS-uplink egress bytes per iteration.
        phase_offset: offset (seconds, in ``[0, iteration_period)``) of
            the communication burst within the period, relative to job
            launch.
        barrier_wait_p50: median worker barrier wait of the solo run —
            the raw histogram statistic behind ``comm_duty_cycle``, kept
            for reports and debugging.
        profile_iterations: how many iterations the profile ran.
    """

    shape_key: str
    iteration_period: float
    comm_duty_cycle: float
    bytes_per_iteration: float
    phase_offset: float
    barrier_wait_p50: float
    profile_iterations: int

    def __post_init__(self) -> None:
        if self.iteration_period <= 0:
            raise ConfigError(
                f"fingerprint period must be positive, got {self.iteration_period}"
            )
        if not 0.0 <= self.comm_duty_cycle <= 1.0:
            raise ConfigError(
                f"comm_duty_cycle must be in [0, 1], got {self.comm_duty_cycle}"
            )

    @property
    def comm_seconds(self) -> float:
        """Length of the communication phase within one period."""
        return self.comm_duty_cycle * self.iteration_period

    def phase_at(self, arrival_time: float) -> float:
        """Phase (seconds into the period) of a job launched at ``arrival_time``.

        Jobs of the same shape launched at different times communicate at
        different phases; this is the quantity phase-interleaving
        placement aligns across colocated jobs.
        """
        return (arrival_time + self.phase_offset) % self.iteration_period


def profile_config(config: "ExperimentConfig") -> "ExperimentConfig":
    """The solo-job profiling configuration derived from ``config``.

    Everything that shapes a single job's communication is inherited
    (model, workers, batch, shards, compression, link, transport and
    buffer parameters); everything about the *cluster mix* is pinned —
    one job, no stagger, no impairment, FIFO, the oblivious placement,
    a fixed seed and :data:`PROFILE_ITERATIONS` iterations — so that the
    profile is cheap, contention-free and shared by every config with the
    same shape.
    """
    from repro.placement.policies import OBLIVIOUS

    return config.replace(
        n_jobs=1,
        placement_index=1,
        placement_policy=OBLIVIOUS,
        iterations=PROFILE_ITERATIONS,
        launch_stagger=0.0,
        seed=PROFILE_SEED,
        policy=_fifo(),
        netem_loss=0.0,
        netem_delay=0.0,
        netem_jitter=0.0,
        sample_hosts=False,
    )


def _fifo():
    """The FIFO policy enum member (lazy import: config depends on us)."""
    from repro.experiments.config import Policy

    return Policy.FIFO


def shape_key(config: "ExperimentConfig") -> str:
    """Stable content hash of the job shape a config describes.

    Two configs share a shape key exactly when their :func:`profile_config`
    derivations are identical — i.e. when they agree on every field that
    survives into the profiling run.  Contention knobs (``n_jobs``,
    ``placement_index``, ``policy``, ``seed``, ``launch_stagger``, ...)
    are pinned by the derivation and therefore never split the key.
    """
    from repro.experiments.scenario import config_to_dict

    payload = config_to_dict(profile_config(config))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def profile_job_shape(config: "ExperimentConfig") -> JobFingerprint:
    """Run the profiling simulation and extract the fingerprint.

    Materializes the :func:`profile_config` scenario, runs it to
    completion, and reads the fingerprint off what the run recorded: the
    median of the job's barrier waits (a
    :class:`~repro.telemetry.metrics.Histogram` of its
    :class:`~repro.dl.metrics.BarrierSeries`, via
    :meth:`~repro.telemetry.metrics.Histogram.percentile`) and the bytes
    the PS host's NIC transmitted.  Deterministic: the profile seed is
    fixed and the simulation is deterministic per seed.
    """
    from repro.experiments.runtime import materialize
    from repro.experiments.scenario import Scenario
    from repro.telemetry.metrics import Histogram

    pcfg = profile_config(config)
    runtime = materialize(Scenario(config=pcfg))
    result = runtime.run()

    metrics = result.metrics["job00"]
    iterations = max(metrics.iterations_done, 1)
    period = (metrics.end_time - metrics.start_time) / iterations
    if period <= 0:
        raise ConfigError(
            "profiling run produced a non-positive iteration period"
        )

    hist = Histogram("dl_barrier_wait_seconds", ())
    for wait in metrics.barriers.waits():
        hist.observe(wait)
    barrier_p50 = hist.percentile(0.5)
    duty = min(1.0, max(0.0, barrier_p50 / period))

    ps_host = result.ps_host_of_job["job00"]
    tx_bytes = runtime.cluster.host(ps_host).nic.bytes_tx

    return JobFingerprint(
        shape_key=shape_key(config),
        iteration_period=period,
        comm_duty_cycle=duty,
        bytes_per_iteration=tx_bytes / iterations,
        phase_offset=(metrics.start_time - metrics.arrival_time) % period,
        barrier_wait_p50=barrier_p50,
        profile_iterations=pcfg.iterations,
    )
