"""The placement-vs-TensorLights co-design study.

The paper fixes placement (Table I) and varies the end-host policy; the
:mod:`repro.placement` subsystem fixes the policy axis's blind spot and
varies placement.  This study runs the full matrix

    placement policy {oblivious, contention-aware, ...}
        x  scheduling policy {FIFO, TLs-One, TLs-RR}
        x  a seed sweep

as ONE :class:`~repro.experiments.campaign.Campaign` and asks the
question neither axis can answer alone: *does end-host scheduling still
earn its keep once placement stops creating the contention it cleans
up?*  Every cell is reported as a speedup over the oblivious-FIFO
baseline with a paired bootstrap CI (:mod:`repro.analysis.ci`), plus a
Jain fairness index over per-job JCTs.

:meth:`CodesignReport.direction_ok` is the CI smoke check (the exit code
of ``tensorlights codesign``): the best *combined* cell must be at least
as fast as the weaker of the two single-axis fixes — co-design may beat
or tie the best single axis, but if combining them is *worse than both*,
the subsystem composed wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.ci import ConfidenceInterval, bootstrap_ratio_ci
from repro.analysis.fairness import jain_index
from repro.errors import ConfigError
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import base_config
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.experiments.study.components import Axis
from repro.experiments.study.spec import StudySpec, seed_sweep

#: Default placement axis: the oblivious baseline plus both
#: fingerprint-driven policies (duty-cycle balancing and CASSINI-style
#: phase interleaving).
DEFAULT_PLACEMENTS: Tuple[str, ...] = (
    "oblivious", "least-contended", "phase-interleave",
)

#: Quick (CI smoke) placement axis: baseline plus one smart policy.
QUICK_PLACEMENTS: Tuple[str, ...] = ("oblivious", "phase-interleave")

#: Default scheduling-policy axis — the paper's three.
DEFAULT_POLICIES: Tuple[Policy, ...] = (
    Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR,
)

#: Slack on the direction check: speedups are seed-sweep means.
DIRECTION_EPSILON = 0.02


@dataclass
class CodesignReport:
    """The co-design matrix: speedups over oblivious-FIFO, with CIs.

    ``cells`` maps ``(placement_policy, policy)`` to the seed-ordered
    result list of that cell.  ``render()`` and ``to_csv()`` share one
    :class:`TextTable`, so the printed study and the CI artifact can
    never disagree.
    """

    config: ExperimentConfig
    placements: Tuple[str, ...]
    policies: Tuple[Policy, ...]
    seeds: Tuple[int, ...]
    cells: Dict[Tuple[str, Policy], List[ExperimentResult]]
    confidence: float = 0.95
    cache_hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0

    def jcts(self, placement: str, policy: Policy) -> List[float]:
        """Per-seed average JCTs of one cell (seed-sweep order)."""
        return [r.avg_jct for r in self.cells[(placement, policy)]]

    def speedup(self, placement: str, policy: Policy) -> ConfidenceInterval:
        """Paired bootstrap CI of ``baseline JCT / cell JCT`` over seeds.

        Above 1.0 the cell beats the oblivious-FIFO baseline.  Numerator
        and denominator of one seed come from the same sweep position,
        so the ratio resamples pairwise.
        """
        baseline = self.jcts("oblivious", Policy.FIFO)
        return bootstrap_ratio_ci(
            baseline, self.jcts(placement, policy),
            confidence=self.confidence,
        )

    def fairness(self, placement: str, policy: Policy) -> float:
        """Mean Jain index over per-job JCTs, averaged over the sweep."""
        return float(np.mean([
            jain_index(list(r.jcts.values()))
            for r in self.cells[(placement, policy)]
        ]))

    # -- the three co-design quantities ------------------------------------

    def _smart(self) -> Tuple[str, ...]:
        return tuple(p for p in self.placements if p != "oblivious")

    def _tls(self) -> Tuple[Policy, ...]:
        return tuple(p for p in self.policies if p != Policy.FIFO)

    def placement_only_speedup(self) -> float:
        """Best smart-placement speedup under plain FIFO."""
        return max(
            self.speedup(p, Policy.FIFO).estimate for p in self._smart()
        )

    def tls_only_speedup(self) -> float:
        """Best TensorLights speedup under oblivious placement."""
        return max(
            self.speedup("oblivious", pol).estimate for pol in self._tls()
        )

    def combined_speedup(self) -> float:
        """Best speedup with both axes engaged."""
        return max(
            self.speedup(p, pol).estimate
            for p in self._smart() for pol in self._tls()
        )

    def direction_ok(self) -> bool:
        """Does co-design compose?

        True when the best combined cell is at least as fast (within
        :data:`DIRECTION_EPSILON`) as the weaker single-axis fix —
        i.e. adding the second axis never drops the study below
        ``min(placement-only, TLs-only)``.
        """
        floor = min(self.placement_only_speedup(), self.tls_only_speedup())
        return self.combined_speedup() >= floor - DIRECTION_EPSILON

    def claims(self) -> List[Claim]:
        """Co-design composes (:meth:`direction_ok`)."""
        return [Claim(
            "codesign.composes", "extension: combined >= min(single axes)",
            f"{self.combined_speedup():.3f}x vs placement-only "
            f"{self.placement_only_speedup():.3f}x, TLs-only {self.tls_only_speedup():.3f}x",
            self.direction_ok(),
        )]

    # -- rendering ---------------------------------------------------------

    def _table(self) -> TextTable:
        table = TextTable(
            ["Placement", "Policy", "Avg JCT (s)",
             f"Speedup vs obl-FIFO ({int(self.confidence * 100)}% CI)",
             "Jain fairness"],
            title=(
                f"Placement x TensorLights co-design "
                f"(placement #{self.config.placement_index} baseline, "
                f"seeds {list(self.seeds)})"
            ),
        )
        for placement in self.placements:
            for policy in self.policies:
                ci = self.speedup(placement, policy)
                table.add_row(
                    placement,
                    policy.value,
                    float(np.mean(self.jcts(placement, policy))),
                    f"{ci.estimate:.3f} [{ci.low:.3f}, {ci.high:.3f}]",
                    f"{self.fairness(placement, policy):.4f}",
                )
        return table

    def render(self) -> str:
        """The matrix table plus the three-way co-design verdict."""
        verdict = (
            "direction OK: combined >= min(placement-only, TLs-only)"
            if self.direction_ok()
            else "direction NOT reproduced: combining the axes lost ground"
        )
        lines = [
            self._table().render(),
            "",
            f"placement-only {self.placement_only_speedup():.3f}x | "
            f"TLs-only {self.tls_only_speedup():.3f}x | "
            f"combined {self.combined_speedup():.3f}x",
            verdict,
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The same matrix as CSV (identical headers and formatting)."""
        return self._table().to_csv()


def _spec(
    base: Optional[ExperimentConfig] = None,
    placements: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[Policy]] = None,
    seeds: Optional[Sequence[int]] = None,
    quick: bool = False,
    **overrides,
) -> StudySpec:
    """The co-design matrix: a placement x policy grid over a seed sweep.

    Args:
        base: starting configuration (default: ``ExperimentConfig()``
            pinned to the paper's contended placement #1; under
            ``quick`` a 6-job/5-host miniature of the same shape).
        placements: placement-policy axis; must include ``"oblivious"``
            and at least one smart policy (default:
            :data:`DEFAULT_PLACEMENTS`, or :data:`QUICK_PLACEMENTS`
            under ``quick``).
        policies: scheduling-policy axis; must include ``Policy.FIFO``
            and at least one TensorLights mode (default:
            :data:`DEFAULT_POLICIES`).
        seeds: the seed sweep (needs >= 2 distinct seeds for the paired
            bootstrap; default: three consecutive seeds from the
            config's, two under ``quick``).
        quick: CI smoke scale — the contended miniature, two placements,
            two seeds, a few iterations.
    """
    if quick:
        if base is None:
            # 6 jobs on 5 hosts: every PS colocates somewhere even under
            # smart placement, so phase interleaving has real work to do
            # — and placement #1 (all six PSes on one uplink) gives the
            # oblivious baseline the contention the paper studies.
            base = ExperimentConfig.tiny(n_jobs=6, n_workers=4, iterations=6)
        if placements is None:
            placements = QUICK_PLACEMENTS
    cfg = base_config(base, **overrides)
    if "placement_index" not in overrides:
        cfg = cfg.replace(placement_index=1)

    placement_axis = tuple(placements) if placements is not None else DEFAULT_PLACEMENTS
    policy_axis = tuple(policies) if policies is not None else DEFAULT_POLICIES
    if "oblivious" not in placement_axis:
        raise ConfigError("the co-design study needs the oblivious baseline")
    if len(placement_axis) < 2:
        raise ConfigError("the co-design study needs a smart placement "
                          "next to the oblivious baseline")
    if Policy.FIFO not in policy_axis:
        raise ConfigError("the co-design study needs the FIFO baseline")
    if all(p not in (Policy.TLS_ONE, Policy.TLS_RR) for p in policy_axis):
        raise ConfigError("the co-design study needs a TensorLights policy")
    return StudySpec(
        name="codesign",
        base=cfg,
        axes=(Axis("placement_policy", placement_axis),
              Axis("policy", policy_axis)),
        seeds=seed_sweep(seeds, cfg, 2 if quick else 3),
    )


def scenarios(**kwargs) -> List[Scenario]:
    """The scenarios :func:`generate` submits, in order (``kwargs`` as
    for :func:`_spec`)."""
    return _spec(**kwargs).scenarios()


def generate(
    campaign: Optional[Campaign] = None, confidence: float = 0.95, **kwargs
) -> CodesignReport:
    """Run the co-design matrix as one campaign submission.

    Args:
        campaign: campaign to submit through (parallel executor /
            result cache); default: serial, uncached.
        confidence: CI level for the bootstrap speedups.
        kwargs: the study's axes and configuration, as for :func:`_spec`.
    """
    spec = _spec(**kwargs)
    grid = spec.expand()
    camp = campaign if campaign is not None else Campaign()
    outcome = camp.run([point.scenario for point in grid])

    # Seeds are the outer loop of the grid, so each cell's list is in
    # seed-sweep order.
    cells: Dict[Tuple[str, Policy], List[ExperimentResult]] = {}
    for point, result in zip(grid, outcome.results):
        cell = tuple(value for _, value in point.overrides)
        cells.setdefault(cell, []).append(result)

    placement_axis, policy_axis = spec.axes
    return CodesignReport(
        config=spec.base,
        placements=placement_axis.values,
        policies=policy_axis.values,
        seeds=spec.seeds,
        cells=cells,
        confidence=confidence,
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        wall_seconds=outcome.wall_seconds,
    )
