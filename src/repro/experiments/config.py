"""Experiment configuration.

The default :meth:`ExperimentConfig.scaled` runs the paper's grid-search
workload shape (21 concurrent ResNet-32 jobs, 1 PS + 20 workers each,
local batch 4, 10 Gbps star network) with a reduced iteration count: the
workload is perfectly periodic, so steady-state behaviour — and every
*relative* result the paper reports — is preserved while runs stay fast.
:meth:`ExperimentConfig.paper_scale` restores the full 30 000 global steps.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.placement import PlacementSpec, placement_by_index
from repro.errors import ConfigError
from repro.units import gbps

#: The fields :meth:`ExperimentConfig.paper_scale` sets: 30 000 global
#: steps and a 20 s TLs-RR rotation interval.
PAPER_SCALE = {"iterations": 1500, "tls_interval": 20.0}


class Policy(str, enum.Enum):
    """Network scheduling policies.

    The paper evaluates FIFO (baseline), TLs-One and TLs-RR.  DRR is an
    extra per-flow fair-queueing baseline used by the A4 ablation — it is
    *not* in the paper; it demonstrates that TensorLights' benefit comes
    from serializing jobs, not merely from isolating flows.
    """

    FIFO = "fifo"
    TLS_ONE = "tls-one"
    TLS_RR = "tls-rr"
    DRR = "drr"


class Architecture(str, enum.Enum):
    """Which distributed-training architecture the cluster's jobs use.

    ``PS`` is the paper's parameter-server fan-out; ``ALLREDUCE`` replaces
    every job with a chunked ring all-reduce (:mod:`repro.collectives`);
    ``MIXED`` runs both side by side — ``allreduce_fraction`` of the jobs
    become rings, the rest stay PS — to study TensorLights' generality
    beyond the architecture it was designed for.
    """

    PS = "ps"
    ALLREDUCE = "allreduce"
    MIXED = "mixed"


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run."""

    # workload
    n_jobs: int = 21
    n_workers: int = 20
    model: str = "resnet32_cifar10"
    #: multiplies the zoo model's compute cost (calibration knob; the
    #: network side is physics, the CPU side depends on the testbed CPU)
    model_compute_factor: float = 1.0
    local_batch_size: int = 4
    iterations: int = 30            # sync iterations per job (paper: 1500)
    launch_stagger: float = 0.1     # paper: 0.1 s between job launches
    compute_jitter_sigma: float = 0.05
    sync: bool = True
    #: PS shards per job (paper §III's general case; ablation A8)
    n_ps: int = 1
    #: fraction of update bytes actually sent (1.0 = uncompressed; A9)
    compression_ratio: float = 1.0

    # architecture
    #: training architecture of the cluster's jobs (PS / ring all-reduce /
    #: a mix of both); non-PS jobs are placed by the spread scheduler, not
    #: by the Table I placement
    architecture: Architecture = Architecture.PS
    #: fraction of jobs that become all-reduce rings under ``MIXED``
    allreduce_fraction: float = 0.5
    #: concurrent chunk channels (source ports) per ring member
    allreduce_channels: int = 1

    # placement
    placement_index: int = 1        # Table I index
    #: PS placement policy (``repro.placement.policies`` registry name).
    #: ``"oblivious"`` reproduces the Table I placement byte-identically;
    #: other policies derive host assignments from job fingerprints.
    placement_policy: str = "oblivious"

    # infrastructure
    link_gbps: float = 10.0
    cores_per_host: int = 12
    segment_bytes: int = 256 * 1024
    window_segments: int = 8
    #: per-flow TCP-window spread; reproduces FIFO's unequal shares and
    #: thus the tail-straggler completion spread (see Transport docstring)
    window_jitter: float = 0.5
    #: per-switch-port egress buffer (bytes); a shallow ToR-like buffer so
    #: fan-in bursts (PS gradient incast, worker model-update fan-in)
    #: experience real loss.  None = infinite (fluid model, no losses);
    #: otherwise at least ``segment_bytes``, so every segment can fit.
    switch_buffer_bytes: Optional[float] = 4e6
    #: TCP retransmission timeout after an incast drop, scaled to the
    #: simulated iteration length (Linux's 200 ms min RTO is ~10% of the
    #: paper's ~2 s iterations; 20 ms is ~3% of ours)
    rto: float = 0.02

    # robustness (netem-style egress impairment at worker hosts)
    #: fraction of egress segments dropped at worker NICs (0 = off)
    netem_loss: float = 0.0
    #: fixed egress delay (s) added at worker NICs (0 = off)
    netem_delay: float = 0.0
    #: uniform jitter (s) on top of ``netem_delay``
    netem_jitter: float = 0.0

    # policy
    policy: Policy = Policy.FIFO
    tls_interval: float = 1.5       # TLs-RR rotation period T, scaled (paper: 20 s at 1500 iterations)
    max_bands: int = 6

    # measurement
    seed: int = 42
    sample_interval: float = 1.0
    sample_hosts: bool = False      # enable vmstat/ifstat samplers

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ConfigError("n_jobs must be >= 1")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.local_batch_size < 1:
            raise ConfigError("local_batch_size must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.link_gbps <= 0:
            raise ConfigError("link_gbps must be positive")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if self.seed < 0:
            # numpy seeds its generators from non-negative integers only
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if (self.switch_buffer_bytes is not None
                and self.switch_buffer_bytes < self.segment_bytes):
            # a segment that can never fit is tail-dropped and resent forever
            raise ConfigError(
                "switch_buffer_bytes must be >= segment_bytes "
                f"({self.segment_bytes}), got {self.switch_buffer_bytes:g}"
            )
        if self.n_ps < 1:
            raise ConfigError("n_ps must be >= 1")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ConfigError("compression_ratio must be in (0, 1]")
        if not 0.0 <= self.netem_loss < 1.0:
            raise ConfigError("netem_loss must be in [0, 1)")
        if self.netem_delay < 0 or self.netem_jitter < 0:
            raise ConfigError("netem delay/jitter must be >= 0")
        # lazy import: repro.placement depends on this module
        from repro.placement.policies import get_placement_policy

        get_placement_policy(self.placement_policy)  # raises if unknown
        if not 0.0 < self.allreduce_fraction <= 1.0:
            raise ConfigError("allreduce_fraction must be in (0, 1]")
        if self.allreduce_channels < 1:
            raise ConfigError("allreduce_channels must be >= 1")
        if self.architecture != Architecture.PS:
            if self.n_workers < 2:
                raise ConfigError(
                    "ring all-reduce needs n_workers >= 2 members"
                )
            if self.n_ps != 1:
                raise ConfigError(
                    "n_ps shards only apply to the PS architecture"
                )
            if not self.sync:
                raise ConfigError(
                    "ring all-reduce is synchronous (sync must stay True)"
                )
            if self.policy == Policy.DRR:
                raise ConfigError(
                    "the DRR ablation targets contended PS hosts; use the "
                    "ps architecture"
                )
            if self.placement_policy != "oblivious":
                raise ConfigError(
                    "placement policies assign PS hosts; the "
                    f"{Architecture(self.architecture).value} architecture "
                    "places rings with the spread scheduler"
                )
            if self.netem_loss > 0 or self.netem_delay > 0:
                raise ConfigError(
                    "netem impairment targets worker-only hosts, which the "
                    "ring architectures do not have"
                )

    # -- derived -----------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        """Workers spread over all hosts except each job's PS host."""
        return self.n_workers + 1

    @property
    def target_global_steps(self) -> int:
        return self.iterations * self.n_workers

    @property
    def link_rate(self) -> float:
        return gbps(self.link_gbps)

    def placement(self) -> PlacementSpec:
        return placement_by_index(self.placement_index, n_jobs=self.n_jobs)

    def allreduce_jobs(self) -> frozenset:
        """Job indices that run as all-reduce rings under this config.

        Deterministic in the config alone (no RNG): under ``MIXED``, job
        ``j`` is a ring iff ``floor((j+1)·f) > floor(j·f)`` with ``f =
        allreduce_fraction`` — the Bresenham-style spacing that puts
        ``round(n·f)`` rings evenly through the arrival order.
        """
        arch = Architecture(self.architecture)
        if arch == Architecture.PS:
            return frozenset()
        if arch == Architecture.ALLREDUCE:
            return frozenset(range(self.n_jobs))
        f = self.allreduce_fraction
        return frozenset(
            j for j in range(self.n_jobs)
            if math.floor((j + 1) * f) > math.floor(j * f)
        )

    # -- presets ----------------------------------------------------------

    @classmethod
    def scaled(cls, **overrides) -> "ExperimentConfig":
        """The default fast configuration (12 iterations)."""
        return cls(**overrides)

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        """The paper's full workload: 30 000 global steps, T = 20 s."""
        return cls(**{**PAPER_SCALE, **overrides})

    @classmethod
    def tiny(cls, **overrides) -> "ExperimentConfig":
        """A test-suite-sized configuration (seconds to run)."""
        base = dict(n_jobs=4, n_workers=4, iterations=5, launch_stagger=0.01,
                    tls_interval=1.0)
        base.update(overrides)
        return cls(**base)

    def replace(self, **overrides) -> "ExperimentConfig":
        """A copy with fields overridden."""
        return dataclasses.replace(self, **overrides)
