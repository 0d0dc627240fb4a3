"""The A1–A14 ablation tables, built on the declarative study engine.

Rows are pinned byte-identical by ``tests/experiments/test_study_shims``.
Grids come from a :class:`~repro.experiments.study.spec.StudySpec` over
registered components; A5 (placement objects), A6 and A10 (raw hook
parameter sets), A12 and A13 (an impaired copy of a clean FIFO/TLs-One
pair) build short explicit scenario lists.  A6's rate-limiting qdiscs,
A10's alternative controllers and A12's noisy neighbors run through
declarative build hooks, so A1–A10, A12 and A13 each submit one flat
scenario list through one
:class:`~repro.experiments.campaign.Campaign` (pass ``campaign=`` to
parallelize or cache).  A11 (online arrivals) and A14 (a leaf-spine
fabric) build their own clusters and run in-process.

Each table carries the claims it checks (:meth:`AblationResult.claims`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterScheduler, SchedulingPolicy, default_host_ids
from repro.cluster.host import Host
from repro.cluster.placement import PlacementSpec
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import get_model
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import base_config, submit
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.experiments.study.components import Axis, get_component
from repro.experiments.study.spec import StudySpec
from repro.experiments.workloads import WorkloadSpec, generate_jobs, run_dynamic_cluster
from repro.net.link import Link
from repro.net.twotier import TwoTierNetwork
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.tensorlights import TensorLights, TLMode


@dataclass
class AblationResult:
    """One rendered ablation table (title, headers, raw rows) and the
    claims it checks.

    ``render()`` and ``to_csv()`` read the same :class:`TextTable`, so
    the printed table and the CSV artifact share headers and rounding.
    """

    title: str
    headers: List[str]
    rows: List[tuple]
    checks: Tuple[Claim, ...] = ()

    def claims(self) -> List[Claim]:
        """The claims this table checks."""
        return list(self.checks)

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
    by_bands = {row[1]: row[3] for row in rows[1:]}
    most, fewest = max(by_bands), min(by_bands)
    return AblationResult(
        title="A1: priority-band budget (placement #1)",
        headers=["Policy", "Bands", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows=rows,
        checks=(Claim.compare(f"A1.bands{most}-vs-{fewest}", "more bands serialize finer",
                              by_bands[most], "<", by_bands[fewest]),),
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
    fastest = min(intervals)
    return AblationResult(
        title="A2: TLs-RR rotation interval T (placement #1)",
        headers=["Policy", "T (s)", "Avg JCT (s)", "Norm JCT", "JCT spread (std)"],
        rows=rows,
        checks=(Claim.compare(f"A2.T{fastest:g}-fairer", "fast rotation is fairer than TLs-One",
                              spread(rr[intervals.index(fastest)]), "<", spread(one)),),
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
        checks=tuple(
            Claim.compare(f"A3.{row[0].replace(' ', '')}", "TLs never worse", row[3], "<", 1.05)
            for row in rows
        ),
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
    norm = {row[0]: row[2] for row in rows}
    return AblationResult(
        title="A4: fair queueing is not enough (placement #1)",
        headers=["Policy", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows=rows,
        checks=(Claim.compare("A4.tls-one-beats-drr", "DRR does not fix stragglers",
                              norm["tls-one"], "<", norm["drr"] - 0.05),),
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
    rand, aware = rows
    return AblationResult(
        title="A5: PS-aware cluster scheduling (paper future work, FIFO network)",
        headers=["Scheduler", "PS colocation profile", "Max coloc",
                 "Avg JCT (s)", "Median barrier var"],
        rows=rows,
        checks=(
            Claim.compare("A5.colocation", "§VII: PS-aware placement spreads PSes",
                          aware[2], "<", rand[2]),
            Claim.compare("A5.jct", "§VII: and does not cost JCT",
                          aware[3], "<=", rand[3] * 1.02),
        ),
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
    best, worst = max(allocation_errors), min(allocation_errors)
    by_acc = dict(zip(allocation_errors, limited))
    return AblationResult(
        title="A6: sender rate control vs priorities (placement #1)",
        headers=["Policy", "Allocation accuracy", "Avg JCT (s)", "Norm JCT"],
        rows=rows,
        checks=(
            Claim.compare(f"A6.accuracy{worst:g}-worse", "§VII: under-allocation idles the link",
                          by_acc[worst].avg_jct / fifo.avg_jct, ">",
                          by_acc[best].avg_jct / fifo.avg_jct),
            Claim.compare("A6.priorities-win", "§VII: work-conserving priorities win",
                          tls.avg_jct / fifo.avg_jct, "<=",
                          by_acc[best].avg_jct / fifo.avg_jct + 0.02),
        ),
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
        checks=tuple(Claim.compare(f"A7.{row[0]}", "TLs never hurts async jobs", row[2], "<", 1.05)
                     for row in rows[1:]),
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
        checks=tuple(Claim.compare(f"A8.ps{row[0]}", "§III: TLs helps sharded jobs", row[3], "<", 0.95)
                     for row in rows),
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
    none_fifo, none_tls = rows[0][3], rows[1][3]
    packed_fifo, packed_tls = rows[-2][3], rows[-1][3]
    return AblationResult(
        title="A9: gradient compression x TensorLights (placement #1; "
              "norm vs uncompressed FIFO)",
        headers=["Compression", "Policy", "Avg JCT (s)", "Norm JCT"],
        rows=rows,
        checks=(
            Claim.compare("A9.compression-helps", "§VI: compression cuts JCT",
                          packed_fifo, "<", none_fifo),
            Claim.compare("A9.tls-on-compression", "TLs no worse on top",
                          packed_tls, "<=", packed_fifo + 0.02),
            Claim.compare("A9.tls-alone", "TLs helps uncompressed jobs",
                          none_tls, "<", none_fifo),
        ),
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
    static_gain, adaptive_gain = (1.0 - row[2] for row in rows[1:])
    return AblationResult(
        title="A10: adaptive (contention-triggered) TensorLights (placement #1)",
        headers=["Controller", "Avg JCT (s)", "Norm JCT", "tc reconfigurations"],
        rows=rows,
        checks=(Claim.compare("A10.adaptive-gain", "recovers most of static's gain",
                              adaptive_gain, ">", 0.5 * static_gain),),
    )


# --------------------------------------------------------------------- A11


def cluster_day() -> AblationResult:
    """A11: a dynamic cluster day — online arrivals, placement, departures.

    Beyond the paper's static launch: 16 Poisson-arriving jobs placed
    online by a role-agnostic scheduler (colocation happens by chance,
    paper §II), with TensorLights attaching and detaching per job as
    §IV-B prescribes.  Compares the paper's fix (end-host priorities)
    with its future-work fix (PS-aware placement) and shows they compose.
    """
    jobs = generate_jobs(WorkloadSpec(
        n_jobs=16, arrival_rate=0.8, n_workers=10, iterations_range=(8, 20),
        local_batch_size=2,
    ), seed=7)
    variants = (
        ("random + FIFO", SchedulingPolicy.RANDOM, None),
        ("random + TLs-One", SchedulingPolicy.RANDOM, TLMode.ONE),
        ("random + TLs-RR", SchedulingPolicy.RANDOM, TLMode.RR),
        ("ps-aware + FIFO", SchedulingPolicy.PS_AWARE, None),
        ("ps-aware + TLs-One", SchedulingPolicy.PS_AWARE, TLMode.ONE),
    )
    runs = {
        label: run_dynamic_cluster(jobs, n_hosts=11, link_rate=2.5e9 / 8,
                                   scheduler_policy=sched, tensorlights=tls, seed=7)
        for label, sched, tls in variants
    }
    base = runs["random + FIFO"].avg_jct
    return AblationResult(
        title="A11: online cluster day (16 Poisson-arriving jobs, 10 hosts)",
        headers=["Scheduler + network policy", "Avg JCT (s)", "Norm", "Max PS coloc",
                 "tc reconfigs"],
        rows=[(label, run.avg_jct, run.avg_jct / base, run.max_colocation,
               run.tc_reconfigurations) for label, run in runs.items()],
        checks=(
            Claim.compare("A11.tls-helps-random", "TLs helps an oblivious scheduler",
                          runs["random + TLs-One"].avg_jct, "<", base),
            Claim.compare("A11.ps-aware-colocation", "§VII: PS-aware placement spreads PSes",
                          runs["ps-aware + FIFO"].max_colocation, "<=",
                          runs["random + FIFO"].max_colocation),
            Claim.compare("A11.composes", "TLs no worse on top of placement",
                          runs["ps-aware + TLs-One"].avg_jct, "<=",
                          runs["ps-aware + FIFO"].avg_jct * 1.02),
        ),
    )


# ----------------------------------------------------------------- A12, A13


def _clean_vs(
    name: str,
    title: str,
    cfg: ExperimentConfig,
    impair: Callable[[Scenario], Scenario],
    campaign: Optional[Campaign],
) -> Tuple[AblationResult, List[float]]:
    """FIFO and TLs-One at placement #1, clean and through ``impair``
    (a scenario -> scenario map); the table and the four average JCTs."""
    clean = [Scenario(config=cfg.replace(placement_index=1, policy=policy))
             for policy in (Policy.FIFO, Policy.TLS_ONE)]
    jcts = [r.avg_jct for r in submit(clean + [impair(s) for s in clean], campaign)]
    table = AblationResult(
        title=title,
        headers=["Environment", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm"],
        rows=[("clean", jcts[0], jcts[1], jcts[1] / jcts[0]),
              (name, jcts[2], jcts[3], jcts[3] / jcts[2])],
    )
    return table, jcts


def noisy_neighbors(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A12: does the TensorLights result survive noisy neighbors?

    Background CPU load on worker hosts plus non-DL bulk traffic out of
    the contended PS host (the registered ``noisy_neighbors`` build
    hook).  TensorLights cannot schedule that interference — it is other
    tenants' unclassified traffic — but its improvement on the DL jobs
    should survive.
    """
    table, (fifo, _, noisy_fifo, noisy_tls) = _clean_vs(
        "noisy", "A12: noisy neighbors (placement #1)",
        base_config(base, **overrides),
        lambda scenario: scenario.with_hook("noisy_neighbors"), campaign,
    )
    table.checks = (
        Claim.compare("A12.noise-hurts", "interference slows FIFO", noisy_fifo, ">", fifo),
        Claim.compare("A12.tls-survives", "TLs still wins under noise",
                      noisy_tls, "<", 0.95 * noisy_fifo),
    )
    return table


def jittery_fabric(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> AblationResult:
    """A13: 200 µs netem delay with 50 µs jitter at every worker host.

    The PS hosts keep their HTB (the paper only configures contended
    hosts).  The improvement should degrade gracefully, not invert.
    """
    table, (_, _, jitter_fifo, jitter_tls) = _clean_vs(
        "jitter", "A13: netem delay jitter at worker hosts (placement #1)",
        base_config(base, **overrides),
        lambda scenario: Scenario(config=scenario.config.replace(
            netem_delay=2e-4, netem_jitter=5e-5)), campaign,
    )
    table.checks = (Claim.compare("A13.graceful", "TLs still at least matches FIFO",
                                  jitter_tls, "<", 1.02 * jitter_fifo),)
    return table


# --------------------------------------------------------------------- A14


class _TwoTierCluster:
    """Duck-typed Cluster over a leaf-spine fabric (hosts + network)."""

    def __init__(self, sim, host_ids, **net_kw):
        self.sim = sim
        self.network = TwoTierNetwork(sim, host_ids, **net_kw)
        self.hosts = {
            hid: Host(sim, hid, cores=12,
                      nic=self.network.nic(hid),
                      transport=self.network.transport(hid))
            for hid in host_ids
        }

    def host(self, hid):
        return self.hosts[hid]

    @property
    def host_ids(self):
        return list(self.hosts)


def _leaf_spine_jct(oversubscription: float, tls: bool) -> float:
    """Average JCT of 8 jobs x 10 workers whose PSes share the first host."""
    n_workers, iterations = 10, 10
    sim = Simulator(seed=17)
    host_ids = [f"h{i:02d}" for i in range(n_workers + 1)]
    cluster = _TwoTierCluster(
        sim, host_ids, n_leaves=3, link=Link(rate=2.5e9 / 8),
        oversubscription=oversubscription, segment_bytes=256 * 1024,
        window_jitter=0.5, buffer_bytes=4e6, rto=0.02,
    )
    model = get_model("resnet32_cifar10")
    controller = TensorLights(cluster, mode=TLMode.ONE) if tls else None
    apps = []
    for j in range(8):
        spec = JobSpec(f"job{j:02d}", model, n_workers=n_workers,
                       local_batch_size=2,
                       target_global_steps=iterations * n_workers,
                       arrival_time=0.1 * j)
        app = DLApplication(spec, cluster, ps_host=host_ids[0],
                            worker_hosts=host_ids[1:])
        if controller is not None:
            controller.attach(app)
        apps.append(app)
        app.launch()
    sim.run()
    return float(np.mean([a.metrics.jct for a in apps]))


def leaf_spine() -> AblationResult:
    """A14: does end-host scheduling survive a multi-tier fabric?

    The paper's testbed is one switch, so the PS host NIC is the only
    shared bottleneck.  On a leaf-spine fabric with an oversubscribed
    core, cross-rack bandwidth contends too — something no end-host
    qdisc can arbitrate.  At 1:1 the NIC still dominates and TensorLights
    keeps its win; an oversubscribed core paces the fan-out bursts itself
    (even shielding FIFO from some incast), so the relative advantage
    shrinks — but it never inverts.
    """
    jcts = {(over, tls): _leaf_spine_jct(over, tls)
            for over in (1.0, 4.0) for tls in (False, True)}
    norm = {over: jcts[(over, True)] / jcts[(over, False)] for over in (1.0, 4.0)}
    return AblationResult(
        title="A14: leaf-spine fabric, PSes colocated (8 jobs x 10 workers)",
        headers=["Oversubscription", "FIFO JCT (s)", "TLs-One JCT (s)", "Norm"],
        rows=[(f"{over:.0f}:1", jcts[(over, False)], jcts[(over, True)], norm[over])
              for over in (1.0, 4.0)],
        checks=(
            Claim.compare("A14.one-to-one", "the PS NIC still bottlenecks: TLs wins",
                          norm[1.0], "<", 0.95),
            Claim.compare("A14.oversubscribed-shrinks", "the core paces bursts itself",
                          norm[4.0], ">", norm[1.0]),
            Claim.compare("A14.never-inverts", "TLs no worse than FIFO",
                          norm[4.0], "<", 1.05),
        ),
    )
