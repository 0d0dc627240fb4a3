"""Figure 2: JCT of concurrent DL jobs under the Table I placements (FIFO).

The paper's headline measurement: average JCT varies by up to 75 % with PS
placement alone.  Bars = average JCT per placement; scatters = individual
job JCTs (we report their min/max/std).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.normalize import performance_gap
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import base_config, submit
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario

DEFAULT_PLACEMENTS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class Fig2Result:
    results: Dict[int, ExperimentResult]

    @property
    def avg_jcts(self) -> Dict[int, float]:
        return {idx: r.avg_jct for idx, r in self.results.items()}

    @property
    def performance_gap(self) -> float:
        """(worst - best) / best over placements (paper: up to 75 %)."""
        return performance_gap(list(self.avg_jcts.values()))

    def claims(self) -> List[Claim]:
        """Heaviest colocation worst, most spread best, a large gap."""
        jcts = self.avg_jcts
        heavy, mild = min(jcts), max(jcts)
        worst, best = max(jcts.values()), min(jcts.values())
        return [
            Claim("fig2.worst", f"#{heavy} worst",
                  f"#{max(jcts, key=jcts.get)} ({worst:.4g} s)", jcts[heavy] == worst),
            Claim("fig2.best", f"#{mild} best",
                  f"#{min(jcts, key=jcts.get)} ({best:.4g} s)", jcts[mild] == best),
            Claim.compare("fig2.gap", "up to 0.75", self.performance_gap, ">", 0.30),
        ]

    def render(self) -> str:
        table = TextTable(
            ["Placement", "Avg JCT (s)", "Min job", "Max job", "Std"],
            title="Figure 2: JCT of concurrent DL jobs under various placements (FIFO)",
        )
        for idx in sorted(self.results):
            r = self.results[idx]
            jcts = list(r.jcts.values())
            table.add_row(
                f"#{idx} ({r.config.placement().describe()})",
                r.avg_jct, min(jcts), max(jcts),
                float(sum((x - r.avg_jct) ** 2 for x in jcts) / len(jcts)) ** 0.5,
            )
        from repro.analysis.barchart import Bar, render_barchart

        chart = render_barchart(
            [Bar(f"#{idx}", self.results[idx].avg_jct)
             for idx in sorted(self.results)],
            width=46,
        )
        gap = self.performance_gap
        return (
            table.render()
            + "\n\n" + chart
            + f"\n\nPerformance gap (worst vs best avg JCT): {gap * 100:.0f}%"
            + "  [paper: up to 75%]"
        )


def scenarios(
    base: Optional[ExperimentConfig] = None,
    placements: Sequence[int] = DEFAULT_PLACEMENTS,
    **overrides,
) -> List[Scenario]:
    """One FIFO scenario per placement, tagged with its index."""
    cfg = base_config(base, **overrides).replace(policy=Policy.FIFO)
    return [
        Scenario(config=cfg.replace(placement_index=idx)).with_tags(placement=idx)
        for idx in placements
    ]


def generate(
    base: Optional[ExperimentConfig] = None,
    placements: Sequence[int] = DEFAULT_PLACEMENTS,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> Fig2Result:
    """Run the placements under FIFO and collect per-placement JCTs."""
    results = submit(scenarios(base, placements, **overrides), campaign)
    return Fig2Result(results=dict(zip(placements, results)))
