"""The A1–A10 ablation tables, built on the declarative study engine.

Rows are pinned byte-identical by ``tests/experiments/test_study_shims``.
Grids come from a :class:`~repro.experiments.study.spec.StudySpec` over
registered components; A5 (placement objects), A6 and A10 (raw hook
parameter sets) build short explicit scenario lists.  A6's rate-limiting
qdiscs and A10's alternative controllers run through declarative build
hooks, so every ablation — hooks included — submits one flat scenario
list through one
:class:`~repro.experiments.campaign.Campaign` (pass ``campaign=`` to
parallelize or cache).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster import ClusterScheduler, SchedulingPolicy, default_host_ids
from repro.cluster.placement import PlacementSpec
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import base_config, submit
from repro.experiments.report import TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.experiments.study.components import Axis, get_component
from repro.experiments.study.spec import StudySpec
from repro.sim.rng import RandomStreams


@dataclass
class AblationResult:
    """One rendered ablation table (title, headers, raw rows).

    ``render()`` and ``to_csv()`` read the same :class:`TextTable`, so
    the printed table and the CSV artifact share headers and rounding.
    """

    title: str
    headers: List[str]
    rows: List[tuple]

    def _table(self) -> TextTable:
        table = TextTable(self.headers, title=self.title)
        for row in self.rows:
            table.add_row(*row)
        return table

    def render(self) -> str:
        """The aligned plain-text table."""
        return self._table().render()

    def to_csv(self) -> str:
        """The same table as CSV (identical headers and cell formatting)."""
        return self._table().to_csv()


def _fifo_vs_tls(
    name: str,
    cfg: ExperimentConfig,
    component: str,
    values: Sequence,
    campaign: Optional[Campaign],
) -> List[tuple]:
    """``(value, fifo, tls-one)`` result triples, one per component value."""
    spec = StudySpec(
        name=name,
        base=cfg,
        axes=(
            get_component(component).axis(tuple(values)),
            Axis(name="policy", values=(Policy.FIFO, Policy.TLS_ONE)),
        ),
    )
    results = submit(spec.scenarios(), campaign)
    return [(v, results[2 * i], results[2 * i + 1]) for i, v in enumerate(values)]


def _per_policy(
    name: str,
    cfg: ExperimentConfig,
    policies: Sequence[Policy],
    campaign: Optional[Campaign],
) -> List[tuple]:
    """``(policy, result, JCT / the first policy's JCT)`` per policy."""
    spec = StudySpec(name=name, base=cfg, axes=(Axis("policy", tuple(policies)),))
    results = submit(spec.scenarios(), campaign)
    return [(p, r, r.avg_jct / results[0].avg_jct) for p, r in zip(policies, results)]


# --------------------------------------------------------------------- A1


def bands(
    base: Optional[ExperimentConfig] = None,
    band_counts: Sequence[int] = (1, 2, 3, 6, 12),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A1: JCT and straggler variance vs number of priority bands.

    One band degenerates to FIFO-with-HTB; more bands serialize jobs more
    finely.  The paper uses up to six because ``tc`` offers a limited
    number — this quantifies what that budget costs.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    spec = StudySpec(
        name="a1-bands",
        base=cfg.replace(policy=Policy.TLS_ONE),
        axes=(get_component("bands").axis(tuple(band_counts)),),
        baseline=cfg.replace(policy=Policy.FIFO),
    )
    fifo, *tls = submit(spec.scenarios(), campaign)
    rows = [("fifo", "-", fifo.avg_jct, 1.0,
             float(np.median(fifo.barrier_wait_variances())))]
    for n, res in zip(band_counts, tls):
        rows.append(
            ("tls-one", n, res.avg_jct, res.avg_jct / fifo.avg_jct,
             float(np.median(res.barrier_wait_variances())))
        )
    return AblationResult(
        title="A1: priority-band budget (placement #1)",
        headers=["Policy", "Bands", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows=rows,
    )


# --------------------------------------------------------------------- A2


def interval(
    base: Optional[ExperimentConfig] = None,
    intervals: Sequence[float] = (0.5, 1.5, 3.0, 6.0),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A2: TLs-RR rotation period T — fairness vs efficiency.

    Short T approaches FIFO-like fairness (and loses serialization
    benefit); long T approaches TLs-One (efficient but unfair).  Fairness
    is measured as the spread (std) of per-job JCTs.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    spec = StudySpec(
        name="a2-interval",
        base=cfg.replace(policy=Policy.TLS_RR),
        axes=(get_component("rotation").axis(tuple(intervals)),),
    )
    scenarios = [
        Scenario(config=cfg.replace(policy=Policy.FIFO)),
        Scenario(config=cfg.replace(policy=Policy.TLS_ONE)),
    ] + spec.scenarios()
    fifo, one, *rr = submit(scenarios, campaign)

    def spread(res: ExperimentResult) -> float:
        return float(np.std(list(res.jcts.values())))

    rows = [
        ("fifo", "-", fifo.avg_jct, 1.0, spread(fifo)),
        ("tls-one", "-", one.avg_jct, one.avg_jct / fifo.avg_jct, spread(one)),
    ]
    for T, res in zip(intervals, rr):
        rows.append(
            ("tls-rr", T, res.avg_jct, res.avg_jct / fifo.avg_jct, spread(res))
        )
    return AblationResult(
        title="A2: TLs-RR rotation interval T (placement #1)",
        headers=["Policy", "T (s)", "Avg JCT (s)", "Norm JCT", "JCT spread (std)"],
        rows=rows,
    )


# --------------------------------------------------------------------- A3


def transport(
    base: Optional[ExperimentConfig] = None,
    segment_sizes: Sequence[int] = (64 * 1024, 256 * 1024, 1024 * 1024),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A3: interleaving granularity — segment size sensitivity.

    The straggler effect requires flows to interleave inside the FIFO; if
    segments were as large as whole messages, FIFO itself would serialize
    jobs.  TensorLights' *benefit* should therefore shrink as segments
    grow — evidence the mechanism is interleaving, not bandwidth.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    rows = [
        (f"{seg_bytes // 1024} KiB", fifo.avg_jct, tls.avg_jct,
         tls.avg_jct / fifo.avg_jct)
        for seg_bytes, fifo, tls in _fifo_vs_tls(
            "a3-transport", cfg, "segment_size", segment_sizes, campaign)
    ]
    return AblationResult(
        title="A3: transport segment size vs TensorLights benefit (placement #1)",
        headers=["Segment", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm JCT"],
        rows=rows,
    )


# --------------------------------------------------------------------- A4


def fair_queue(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A4: per-flow fair queueing (DRR) vs FIFO vs TensorLights.

    Fair queueing equalizes *rates*, so for all-or-nothing fan-out bursts
    every message still completes at the tail — it does not fix
    stragglers.  Serializing jobs (TensorLights) does.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    policies = (Policy.FIFO, Policy.DRR, Policy.TLS_ONE)
    rows = [
        (policy.value, res.avg_jct, norm,
         float(np.median(res.barrier_wait_variances())))
        for policy, res, norm in _per_policy("a4-fair-queue", cfg, policies, campaign)
    ]
    return AblationResult(
        title="A4: fair queueing is not enough (placement #1)",
        headers=["Policy", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows=rows,
    )


# --------------------------------------------------------------------- A5


def _placement_from_scheduler(
    policy: SchedulingPolicy, n_jobs: int, n_hosts: int, seed: int
) -> PlacementSpec:
    """Derive a Table-I-style placement from a dynamic scheduler policy."""
    sched = ClusterScheduler(
        default_host_ids(n_hosts),
        policy=policy,
        rng=RandomStreams(seed),
    )
    picks = [sched.pick_ps_host() for _ in range(n_jobs)]
    profile = sorted(Counter(picks).values())
    return PlacementSpec(tuple(profile))


def ps_aware(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A5 (paper §VII): schedule PS tasks placement-aware up front.

    A random (functionality-agnostic) scheduler colocates PSes by chance;
    the PS-aware scheduler spreads them.  Both run plain FIFO — good
    placement removes the contention TensorLights would otherwise fix.
    (Placement overrides are objects, not config fields, so this stays a
    direct scenario list — still one campaign submission.)
    """
    cfg = base_config(base, **overrides).replace(policy=Policy.FIFO)
    labelled = [
        ("random (oblivious)", SchedulingPolicy.RANDOM),
        ("ps-aware (spread)", SchedulingPolicy.PS_AWARE),
    ]
    specs = [
        _placement_from_scheduler(sched_policy, cfg.n_jobs, cfg.n_hosts, cfg.seed)
        for _, sched_policy in labelled
    ]
    results = submit(
        [Scenario(config=cfg, placement=spec) for spec in specs], campaign
    )
    rows = []
    for (label, _), spec, res in zip(labelled, specs, results):
        rows.append(
            (label, spec.describe(), spec.max_colocation, res.avg_jct,
             float(np.median(res.barrier_wait_variances())))
        )
    return AblationResult(
        title="A5: PS-aware cluster scheduling (paper future work, FIFO network)",
        headers=["Scheduler", "PS colocation profile", "Max coloc",
                 "Avg JCT (s)", "Median barrier var"],
        rows=rows,
    )


# --------------------------------------------------------------------- A6


def rate_control(
    base: Optional[ExperimentConfig] = None,
    allocation_errors: Sequence[float] = (1.0, 0.8, 0.6),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A6 (paper §VII): centralized sender rate allocation vs priorities.

    Each colocated PS gets a fixed rate share of the link (``fair share x
    error``), enforced with non-work-conserving HTB classes (rate == ceil)
    installed by the registered ``rate_control`` build hook — so the
    rate-limited variants run through the campaign (parallel, cached)
    like everything else.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    component = get_component("rate_control")
    scenarios = [
        Scenario(config=cfg.replace(policy=Policy.FIFO)),
        Scenario(config=cfg.replace(policy=Policy.TLS_ONE)),
    ]
    for err in allocation_errors:
        scenarios.append(
            component.apply(Scenario(config=cfg), err).with_tags(
                ablation="a6", accuracy=f"{err:g}"
            )
        )
    fifo, tls, *limited = submit(scenarios, campaign)
    rows = [
        ("fifo", "-", fifo.avg_jct, 1.0),
        ("tls-one (work-conserving)", "-", tls.avg_jct, tls.avg_jct / fifo.avg_jct),
    ]
    for err, res in zip(allocation_errors, limited):
        rows.append(
            ("rate-control", f"{err:.0%}", res.avg_jct, res.avg_jct / fifo.avg_jct)
        )
    return AblationResult(
        title="A6: sender rate control vs priorities (placement #1)",
        headers=["Policy", "Allocation accuracy", "Avg JCT (s)", "Norm JCT"],
        rows=rows,
    )


# --------------------------------------------------------------------- A7


def async_mode(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A7: asynchronous training under contention.

    Async removes the barrier, so a straggler no longer stalls its peers —
    but colocated PSes still contend for outbound bandwidth, and
    TensorLights still reduces mean JCT (less than in sync mode).
    """
    cfg = base_config(base, **overrides).replace(placement_index=1, sync=False)
    policies = (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)
    rows = [
        (policy.value, res.avg_jct, norm)
        for policy, res, norm in _per_policy("a7-async", cfg, policies, campaign)
    ]
    return AblationResult(
        title="A7: asynchronous training (placement #1, no barrier)",
        headers=["Policy", "Avg JCT (s)", "Norm JCT"],
        rows=rows,
    )


# --------------------------------------------------------------------- A8


def multi_ps(
    base: Optional[ExperimentConfig] = None,
    shard_counts: Sequence[int] = (1, 2, 4),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A8 (paper §III's general case): shard each job over several PSes.

    All shards stay on the job's placement host, so the *aggregate*
    traffic is unchanged — sharding alone does not relieve a colocated
    host.  (Spreading shards across hosts is a placement decision, cf. A5.)
    TensorLights prioritizes all of a job's shard ports as one unit.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    rows = [
        (n_ps, fifo.avg_jct, tls.avg_jct, tls.avg_jct / fifo.avg_jct)
        for n_ps, fifo, tls in _fifo_vs_tls(
            "a8-multi-ps", cfg, "multi_ps", shard_counts, campaign)
    ]
    return AblationResult(
        title="A8: multi-PS sharded jobs (placement #1, shards colocated)",
        headers=["PSes/job", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm JCT"],
        rows=rows,
    )


# --------------------------------------------------------------------- A9


def compression(
    base: Optional[ExperimentConfig] = None,
    ratios: Sequence[float] = (1.0, 0.25),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A9: gradient compression vs TensorLights — complementary, not rival.

    Compression (paper related work §VI: QSGD, TernGrad) shrinks every
    update, reducing contention for everyone; TensorLights reschedules the
    remaining contention.  Each helps with the other already applied.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    triples = _fifo_vs_tls("a9-compression", cfg, "compression", ratios, campaign)
    baseline = triples[0][1].avg_jct
    rows = [
        (f"{1 / ratio:.0f}x" if ratio < 1 else "none",
         policy.value, res.avg_jct, res.avg_jct / baseline)
        for ratio, fifo, tls in triples
        for policy, res in ((Policy.FIFO, fifo), (Policy.TLS_ONE, tls))
    ]
    return AblationResult(
        title="A9: gradient compression x TensorLights (placement #1; "
              "norm vs uncompressed FIFO)",
        headers=["Compression", "Policy", "Avg JCT (s)", "Norm JCT"],
        rows=rows,
    )


# --------------------------------------------------------------------- A10


def adaptive(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A10: adaptive (contention-triggered) TensorLights vs static.

    The adaptive controller should match static TLs-One's JCT while
    issuing tc state only when the NIC is actually congested.  Controller
    construction goes through the declarative ``tl_controller`` build
    hook, so all three variants run in one campaign submission and the
    reconfiguration counts come back in
    :attr:`~repro.experiments.runtime.ExperimentResult.tc_reconfigurations`.
    """
    cfg = base_config(base, **overrides).replace(placement_index=1)
    kinds = ("fifo", "static", "adaptive")
    scenarios = []
    for kind in kinds:
        scenario = Scenario(config=cfg, tags=(("controller", kind),))
        if kind != "fifo":
            scenario = scenario.with_hook(
                "tl_controller", variant=kind, mode="tls-one",
                check_interval=0.5,
            )
        scenarios.append(scenario)
    results = submit(scenarios, campaign)
    fifo_jct = results[0].avg_jct
    rows = [
        (kind, res.avg_jct, res.avg_jct / fifo_jct, res.tc_reconfigurations)
        for kind, res in zip(kinds, results)
    ]
    return AblationResult(
        title="A10: adaptive (contention-triggered) TensorLights (placement #1)",
        headers=["Controller", "Avg JCT (s)", "Norm JCT", "tc reconfigurations"],
        rows=rows,
    )
