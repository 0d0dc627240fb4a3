"""Component-impact ranking: what actually matters, with bootstrap CIs.

:func:`run_study` measures each declared component's contribution to the
TensorLights result by knockout: the system configuration (TLs-RR on the
paper's contended placement) runs next to one variant per component with
that component set to its ``ablated`` value, plus a plain-FIFO reference
— one base-relative one-at-a-time
:class:`~repro.experiments.study.spec.StudySpec` (:func:`impact_spec`)
over a seed sweep, submitted as ONE
:class:`~repro.experiments.campaign.Campaign` (so ``--parallel`` and the
result cache span the entire study).  Per-component impact is the paired
bootstrap ratio ``knockout JCT / default JCT`` over seeds
(:func:`repro.analysis.ci.bootstrap_ratio_ci`), ranked by distance
from 1.0; fairness impact is the same ratio over the per-job JCT spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.ci import ConfidenceInterval, bootstrap_ratio_ci
from repro.errors import ConfigError
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.report import TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.study.components import (
    Component,
    all_components,
    get_component,
)
from repro.experiments.study.spec import StudySpec, seed_sweep


def _jct_spread(result: ExperimentResult) -> float:
    """Fairness proxy: std of per-job JCTs within one run."""
    return float(np.std(list(result.jcts.values())))


def _format_ci(ci: Optional[ConfidenceInterval]) -> str:
    """One table cell: ``estimate [low, high]`` (or ``-``)."""
    if ci is None:
        return "-"
    return f"{ci.estimate:.3f} [{ci.low:.3f}, {ci.high:.3f}]"


@dataclass(frozen=True)
class ComponentImpact:
    """One component's measured knockout impact.

    ``jct_vs_default`` is the paired bootstrap CI of
    ``knockout JCT / TLs-default JCT`` over the seed sweep — above 1.0
    the knockout *hurts* (the component earns its place), below 1.0 the
    knockout helps.  ``fairness_vs_default`` is the same ratio over the
    per-job JCT spread (``None`` when the default spread is ~0 and the
    ratio is undefined).
    """

    component: str
    description: str
    ablated: Any
    avg_jct: float
    jct_vs_default: ConfidenceInterval
    fairness_vs_default: Optional[ConfidenceInterval]
    tl_only: bool = False

    @property
    def magnitude(self) -> float:
        """Distance of the JCT ratio from 1.0 (the ranking key)."""
        return abs(self.jct_vs_default.estimate - 1.0)


@dataclass
class ImpactReport:
    """The ranked outcome of one component-impact study.

    ``render()`` and ``to_csv()`` share one :class:`TextTable` path, so
    the printed table and the exported artifact can never disagree on
    headers or rounding.
    """

    config: ExperimentConfig
    seeds: Tuple[int, ...]
    fifo_jct: float
    default_jct: float
    default_vs_fifo: ConfidenceInterval
    impacts: List[ComponentImpact] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0

    def ranked(self) -> List[ComponentImpact]:
        """Impacts sorted by JCT-ratio magnitude, largest first."""
        return sorted(self.impacts, key=lambda i: i.magnitude, reverse=True)

    def _table(self) -> TextTable:
        table = TextTable(
            ["Component", "Knockout", "Avg JCT (s)", "JCT vs TLs (95% CI)",
             "Spread vs TLs (95% CI)"],
            title=(
                f"Component impact, ranked (TLs-RR knockouts, "
                f"placement #{self.config.placement_index}, "
                f"seeds {list(self.seeds)})"
            ),
        )
        table.add_row("(none: TLs default)", "-", self.default_jct,
                      _format_ci(None), _format_ci(None))
        for impact in self.ranked():
            name = impact.component + (" *" if impact.tl_only else "")
            table.add_row(
                name,
                impact.ablated,
                impact.avg_jct,
                _format_ci(impact.jct_vs_default),
                _format_ci(impact.fairness_vs_default),
            )
        return table

    def render(self) -> str:
        """The ranked impact table plus the FIFO/TLs reference line."""
        lines = [
            self._table().render(),
            "",
            f"reference: FIFO {self.fifo_jct:.4g} s, TLs default "
            f"{self.default_jct:.4g} s "
            f"(TLs/FIFO {_format_ci(self.default_vs_fifo)})",
            "* = mechanism only exists under a TensorLights controller",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The same table as CSV (identical headers and formatting)."""
        return self._table().to_csv()


def impact_spec(
    base: Optional[ExperimentConfig] = None,
    components: Optional[Sequence[Union[str, Component]]] = None,
    seeds: Optional[Sequence[int]] = None,
    **overrides,
) -> StudySpec:
    """The knockout study as one base-relative one-at-a-time design.

    Centred on the system configuration (TLs-RR), with one axis per
    component at its ``ablated`` value and plain FIFO as each seed's
    baseline.  The arguments are :func:`run_study`'s.
    """
    cfg = base if base is not None else ExperimentConfig()
    if "placement_index" not in overrides:
        overrides = dict(overrides, placement_index=1)
    cfg = cfg.replace(**overrides)
    selected: List[Component] = [
        get_component(c) if isinstance(c, str) else c
        for c in (components if components is not None
                  else all_components().values())
    ]
    if not selected:
        raise ConfigError("impact study needs at least one component")
    return StudySpec(
        name="impact",
        base=cfg.replace(policy=Policy.TLS_RR),
        axes=tuple(c.axis((c.ablated,)) for c in selected),
        design="oat",
        seeds=seed_sweep(seeds, cfg, 3),
        baseline=cfg.replace(policy=Policy.FIFO),
    )


def run_study(
    base: Optional[ExperimentConfig] = None,
    components: Optional[Sequence[Union[str, Component]]] = None,
    seeds: Optional[Sequence[int]] = None,
    campaign: Optional[Campaign] = None,
    confidence: float = 0.95,
    **overrides,
) -> ImpactReport:
    """Run the whole component-impact study as one campaign submission.

    Args:
        base: starting configuration (default: ``ExperimentConfig()``;
            the study pins ``placement_index=1``, the paper's contended
            placement, unless ``overrides`` say otherwise).
        components: which components to knock out — names or
            :class:`Component` objects; default: every registered one.
        seeds: the seed sweep (needs >= 2 distinct seeds for bootstrap
            CIs; default: three consecutive seeds from the base config's).
        campaign: the campaign to submit through (parallel executor /
            result cache); default: serial, uncached.
        confidence: CI level for the bootstrap ratios.
    """
    spec = impact_spec(base, components, seeds, **overrides)
    points = spec.expand()
    camp = campaign if campaign is not None else Campaign()
    outcome = camp.run([point.scenario for point in points])
    # Seeds are the outer loop of the design, so every list is in
    # seed-sweep order and the bootstrap pairs by position.
    runs: Dict[str, List[ExperimentResult]] = {}
    for point, result in zip(points, outcome.results):
        variant = ("fifo" if point.is_baseline
                   else point.overrides[0][0] if point.overrides
                   else "tls-default")
        runs.setdefault(variant, []).append(result)

    fifo_jcts = [r.avg_jct for r in runs["fifo"]]
    default_jcts = [r.avg_jct for r in runs["tls-default"]]
    default_spreads = [_jct_spread(r) for r in runs["tls-default"]]
    spread_defined = all(s > 0 for s in default_spreads)

    impacts: List[ComponentImpact] = []
    for axis in spec.axes:
        component = axis.component
        results = runs[component.name]
        knock_jcts = [r.avg_jct for r in results]
        fairness = None
        if spread_defined:
            fairness = bootstrap_ratio_ci(
                [_jct_spread(r) for r in results], default_spreads,
                confidence=confidence,
            )
        impacts.append(ComponentImpact(
            component=component.name,
            description=component.description,
            ablated=component.ablated,
            avg_jct=float(np.mean(knock_jcts)),
            jct_vs_default=bootstrap_ratio_ci(
                knock_jcts, default_jcts, confidence=confidence
            ),
            fairness_vs_default=fairness,
            tl_only=component.tl_only,
        ))

    return ImpactReport(
        config=spec.base,
        seeds=spec.seeds,
        fifo_jct=float(np.mean(fifo_jcts)),
        default_jct=float(np.mean(default_jcts)),
        default_vs_fifo=bootstrap_ratio_ci(
            default_jcts, fifo_jcts, confidence=confidence
        ),
        impacts=impacts,
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        wall_seconds=outcome.wall_seconds,
    )
