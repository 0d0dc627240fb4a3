"""Figure 4: scheduling of model-update traffic from two colocated PSes.

The paper's conceptual figure: under FIFO both jobs' fan-out bursts
interleave and both finish at the tail of the contention window; under
TLs-One the prioritized job's burst completes first and the other yields;
under TLs-RR the winner alternates with the rotation interval.

We reproduce it as a measured schedule trace: two jobs whose PSes share a
host broadcast simultaneously; we record when each worker's model update
completes and summarize each job's burst as a [first, last] delivery span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.placement import PlacementSpec
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import ALL_POLICIES, base_config
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario


@dataclass
class BurstSpan:
    """Delivery span of one job's fan-out burst in one iteration."""

    job_id: str
    iteration: int
    first: float
    last: float

    @property
    def width(self) -> float:
        return self.last - self.first


@dataclass
class Fig4Result:
    spans: Dict[Policy, List[BurstSpan]]
    observe_iteration: int

    def overlap(self, policy: Policy) -> float:
        """Temporal overlap (seconds) of the two jobs' bursts.

        FIFO interleaves, so the overlap is nearly the whole window;
        TLs-One serializes, so the overlap is ~0.
        """
        spans = self.spans[policy]
        if len(spans) < 2:
            return 0.0
        a, b = spans[0], spans[1]
        return max(0.0, min(a.last, b.last) - max(a.first, b.first))

    def claims(self) -> List[Claim]:
        """FIFO interleaves the two bursts; TLs-One serializes them, and
        its first job finishes well inside FIFO's collision window."""
        fifo, tls = self.spans[Policy.FIFO], self.spans[Policy.TLS_ONE]
        bursts = Claim("fig4.bursts", "2 colliding bursts per policy",
                       f"{len(fifo)} FIFO, {len(tls)} TLs-One", len(fifo) == len(tls) == 2)
        if not bursts.holds:
            return [bursts]
        window = max(s.last for s in fifo) - min(s.first for s in fifo)
        first_done = min(s.last for s in tls) - min(s.first for s in tls)
        return [
            bursts,
            Claim.compare("fig4.fifo-overlap", "bursts interleave",
                          self.overlap(Policy.FIFO), ">", 0.3 * window),
            Claim.compare("fig4.tls-one-overlap", "bursts serialized",
                          self.overlap(Policy.TLS_ONE), "<", 0.1 * window),
            Claim.compare("fig4.tls-one-first-done", "first job done at ~half the window",
                          first_done, "<", 0.75 * window),
        ]

    def render(self) -> str:
        from repro.analysis.timeline import Span, render_timeline

        table = TextTable(
            ["Policy", "Job", "Burst start", "Burst end", "Width", "Overlap"],
            title=(
                "Figure 4: model-update schedule of two colocated PSes "
                f"(iteration {self.observe_iteration}; times relative to "
                "iteration start)"
            ),
        )
        timeline_spans = []
        for policy, spans in self.spans.items():
            t0 = min(s.first for s in spans) if spans else 0.0
            for s in spans:
                table.add_row(
                    policy.value, s.job_id, s.first - t0, s.last - t0,
                    s.width, self.overlap(policy),
                )
                timeline_spans.append(
                    Span(f"{policy.value}/{s.job_id}", s.first - t0, s.last - t0)
                )
        chart = render_timeline(timeline_spans, width=60)
        return table.render() + "\n\n" + chart


def scenarios(base: Optional[ExperimentConfig] = None, **overrides) -> List[Scenario]:
    """Two jobs, both PSes on the first host, launched simultaneously —
    the exact collision Figure 4 illustrates — on a fluid network (no
    switch losses), once per policy."""
    cfg = base_config(base, **overrides)
    return [
        Scenario(
            config=cfg.replace(
                n_jobs=2, launch_stagger=0.0, policy=policy,
                switch_buffer_bytes=None, rto=0.2,
            ),
            placement=PlacementSpec((2,)),
            tags=(("figure", "4"), ("policy", policy.value)),
        )
        for policy in ALL_POLICIES
    ]


def _observe(scenario: Scenario, observe_iteration: int) -> List[BurstSpan]:
    """Run one scenario with a message delivery tap; one span per job."""
    deliveries = []
    rt = materialize(scenario)
    rt.cluster.network.add_delivery_tap(
        lambda msg: deliveries.append((msg.delivered_at, msg.kind, msg.meta))
    )
    rt.run()

    spans = []
    for app in rt.apps:
        times = [
            time
            for time, kind, meta in deliveries
            if kind == "model_update"
            and meta.get("job") == app.spec.job_id
            and meta.get("iteration") == observe_iteration
        ]
        if times:
            spans.append(
                BurstSpan(app.spec.job_id, observe_iteration,
                          min(times), max(times))
            )
    return spans


def generate(
    base: Optional[ExperimentConfig] = None,
    observe_iteration: Optional[int] = None,
    **overrides,
) -> Fig4Result:
    """Trace the two-PS collision under each policy."""
    if observe_iteration is None:
        # Iteration 0: both jobs launch simultaneously, so their bursts are
        # guaranteed to collide — the exact scenario Figure 4 illustrates.
        observe_iteration = 0
    spans = {
        policy: _observe(scenario, observe_iteration)
        for policy, scenario in zip(ALL_POLICIES, scenarios(base, **overrides))
    }
    return Fig4Result(spans=spans, observe_iteration=observe_iteration)
