"""``tensorlights reproduce``: every paper claim, checked on its result.

A *group* is one table, figure or ablation whose result has a
``claims()`` method returning :class:`~repro.experiments.report.Claim`
rows.  :data:`GROUPS` names each group's generator and the scale it runs
at, relative to the reproduction config (default
``ExperimentConfig(iterations=20, seed=42)``): fig4 traces 4 iterations,
fct, A12 and A13 run ``max(10, iterations // 2)``, A8-A10
``max(8, iterations // 2)``, A7 ``max(6, iterations // 3)``, the fault
sweep ``max(5, iterations // 4)``, and collectives a 1 Gbit/s link.
A11, A14 and the quick co-design matrix run at a fixed scale (A11 and
A14 at fixed seeds too).

:func:`generate` submits the scenarios of every selected group through
one :class:`~repro.experiments.campaign.Campaign` first, so a scenario
two groups share (placement #1 under FIFO is in fig2, fig3, fig5a, fig6
and several A-tables) runs once, and a parallel executor spans them all.
Each group then builds its result from those results; fig1, fig4, fct,
A11 and A14 observe or build their runs in-process and run after.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.campaign import Campaign, CampaignResult, ResultCache
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures import (
    codesign,
    collectives,
    fct,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5a,
    fig5b,
    fig6,
    robustness,
    table1,
    table2,
)
from repro.experiments.report import Claim, render_claims
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.experiments.study import ablations

#: The reproduction config every group scales from.
DEFAULT = ExperimentConfig(iterations=20, seed=42)


def _iterations(divisor: int, floor: int) -> Callable[[ExperimentConfig], ExperimentConfig]:
    return lambda cfg: cfg.replace(iterations=max(floor, cfg.iterations // divisor))


@dataclass(frozen=True)
class Group:
    """One result with claims, and how to build it.

    ``run(cfg, campaign)`` builds the result from ``scale(cfg)``, sending
    one scenario list through ``campaign`` — unless the group builds its
    runs in-process, when ``materializes`` lists the scenarios it
    materializes itself (fig1, fig4, fct; none for table1, A11, A14).
    """

    run: Callable[[ExperimentConfig, Campaign], Any]
    scale: Callable[[ExperimentConfig], ExperimentConfig] = lambda cfg: cfg
    materializes: Optional[Callable[[ExperimentConfig], List[Scenario]]] = None

    def submitted(self, cfg: ExperimentConfig) -> List[Scenario]:
        """The scenarios ``run`` submits, captured at its submission."""
        if self.materializes is not None:
            return []
        try:
            self.run(self.scale(cfg), _Planning())
        except _Planned as planned:
            return planned.scenarios
        raise ValueError("a submitting group returned without submitting")

    def plan(self, cfg: ExperimentConfig) -> List[Scenario]:
        """Every scenario the group runs, submitted or materialized."""
        if self.materializes is not None:
            return self.materializes(self.scale(cfg))
        return self.submitted(cfg)


class _Planned(Exception):
    def __init__(self, scenarios: List[Scenario]) -> None:
        super().__init__(f"{len(scenarios)} scenarios")
        self.scenarios = scenarios


class _Planning(Campaign):
    """Stops a generator at its submission, carrying what it submits."""

    def run(self, scenarios: Optional[Sequence[Scenario]] = None) -> CampaignResult:
        raise _Planned(list(scenarios or ()))


class _Replay(ResultCache):
    """The results of one finished campaign, served as cache hits.

    A scenario that failed there is a miss, so it runs again under the
    group's own failure rule (the fault sweep reports it as a failure).
    """

    def __init__(self, done: CampaignResult) -> None:
        super().__init__()
        self._results = {s.key(): r for s, r in done.pairs() if r is not None}

    def get(self, scenario: Scenario) -> Optional[ExperimentResult]:
        return self._results.get(scenario.key())

    def put(self, scenario: Scenario, result: ExperimentResult) -> None:
        self._results[scenario.key()] = result


def _in_process(run: Callable[[ExperimentConfig], Any],
                materializes: Callable[[ExperimentConfig], List[Scenario]] = lambda cfg: [],
                **fields: Any) -> Group:
    return Group(lambda cfg, campaign: run(cfg), materializes=materializes, **fields)


#: Every group, in the order ``reproduce`` prints them.
GROUPS: Dict[str, Group] = {
    "table1": _in_process(lambda cfg: table1.generate()),
    "fig1": _in_process(fig1.generate, materializes=fig1.scenarios),
    "fig2": Group(lambda cfg, campaign: fig2.generate(cfg, campaign=campaign)),
    "fig3": Group(lambda cfg, campaign: fig3.generate(cfg, campaign=campaign)),
    "fig4": _in_process(fig4.generate, materializes=fig4.scenarios,
                        scale=lambda cfg: cfg.replace(iterations=4)),
    "fig5a": Group(lambda cfg, campaign: fig5a.generate(cfg, campaign=campaign)),
    "fig5b": Group(lambda cfg, campaign: fig5b.generate(cfg, campaign=campaign)),
    "fig6": Group(lambda cfg, campaign: fig6.generate(cfg, campaign=campaign)),
    "table2": Group(lambda cfg, campaign: table2.generate(cfg, campaign=campaign)),
    "fct": _in_process(fct.generate, materializes=fct.scenarios, scale=_iterations(2, 10)),
    "collectives": Group(lambda cfg, campaign: collectives.generate(cfg, campaign=campaign),
                         scale=lambda cfg: cfg.replace(link_gbps=1.0)),
    "robustness": Group(
        lambda cfg, campaign: robustness.generate(
            cfg, losses=(0.0, 0.01), policies=(Policy.FIFO, Policy.TLS_ONE),
            ps_crash=True, campaign=campaign),
        scale=_iterations(4, 5)),
    "codesign": Group(lambda cfg, campaign: codesign.generate(
        quick=True, seed=cfg.seed, campaign=campaign)),
    "A1": Group(lambda cfg, campaign: ablations.bands(
        cfg, band_counts=(1, 2, 6), campaign=campaign)),
    "A2": Group(lambda cfg, campaign: ablations.interval(
        cfg, intervals=(0.5, 1.5, 4.0), campaign=campaign)),
    "A3": Group(lambda cfg, campaign: ablations.transport(cfg, campaign=campaign)),
    "A4": Group(lambda cfg, campaign: ablations.fair_queue(cfg, campaign=campaign)),
    "A5": Group(lambda cfg, campaign: ablations.ps_aware(cfg, campaign=campaign)),
    "A6": Group(lambda cfg, campaign: ablations.rate_control(
        cfg, allocation_errors=(1.0, 0.6), campaign=campaign)),
    "A7": Group(lambda cfg, campaign: ablations.async_mode(cfg, campaign=campaign),
                scale=_iterations(3, 6)),
    "A8": Group(lambda cfg, campaign: ablations.multi_ps(cfg, campaign=campaign),
                scale=_iterations(2, 8)),
    "A9": Group(lambda cfg, campaign: ablations.compression(cfg, campaign=campaign),
                scale=_iterations(2, 8)),
    "A10": Group(lambda cfg, campaign: ablations.adaptive(cfg, campaign=campaign),
                 scale=_iterations(2, 8)),
    "A11": _in_process(lambda cfg: ablations.cluster_day()),
    "A12": Group(lambda cfg, campaign: ablations.noisy_neighbors(cfg, campaign=campaign),
                 scale=_iterations(2, 10)),
    "A13": Group(lambda cfg, campaign: ablations.jittery_fabric(cfg, campaign=campaign),
                 scale=_iterations(2, 10)),
    "A14": _in_process(lambda cfg: ablations.leaf_spine()),
}


@dataclass
class ReproduceReport:
    """Each group's result, and every claim they check."""

    results: Dict[str, Any]
    claims: List[Claim]
    wall_seconds: float = 0.0

    def ok(self) -> bool:
        """Does every claim hold?"""
        return all(claim.holds for claim in self.claims)

    def render(self) -> str:
        """Each group's table, then paper against ours for every claim."""
        tables = [result.render() for result in self.results.values()]
        return "\n\n".join(tables + [
            render_claims(self.claims) + f" ({self.wall_seconds:.0f} s)"
        ])


def _claims(results: Dict[str, Any]) -> List[Claim]:
    """Every group's claims; each id is ``<group>.<what>`` and unique."""
    claims: List[Claim] = []
    seen = set()
    for name, result in results.items():
        for claim in result.claims():
            if not claim.id.startswith(f"{name}.") or claim.id in seen:
                raise ValueError(f"group {name!r}: claim id {claim.id!r} is not "
                                 f"'{name}.<what>' or is not unique")
            seen.add(claim.id)
            claims.append(claim)
    return claims


def _selected(only: Optional[Sequence[str]]) -> List[str]:
    return [name for name in GROUPS if only is None or name in only]


def scenarios(only: Optional[Sequence[str]] = None, **overrides: Any) -> List[Scenario]:
    """Every scenario :func:`generate` runs, submitted or materialized."""
    cfg = DEFAULT.replace(**overrides)
    return [s for name in _selected(only) for s in GROUPS[name].plan(cfg)]


def generate(
    campaign: Optional[Campaign] = None,
    only: Optional[Sequence[str]] = None,
    **overrides: Any,
) -> ReproduceReport:
    """Build every selected group (all by default) and check its claims.

    ``overrides`` are :data:`DEFAULT` fields; ``campaign`` runs every
    submitted scenario once (default: serial, uncached).
    """
    start = time.perf_counter()
    cfg = DEFAULT.replace(**overrides)
    names = _selected(only)
    # A failure here is only a miss below, where its group's rule applies.
    camp = copy.copy(campaign) if campaign is not None else Campaign()
    camp.on_failure = "report"
    done = camp.run([s for name in names for s in GROUPS[name].submitted(cfg)])
    replay = Campaign(cache=_Replay(done), scenario_timeout=camp.scenario_timeout)
    results = {name: GROUPS[name].run(GROUPS[name].scale(cfg), replay) for name in names}
    return ReproduceReport(results=results, claims=_claims(results),
                           wall_seconds=time.perf_counter() - start)
