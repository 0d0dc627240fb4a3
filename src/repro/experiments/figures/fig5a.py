"""Figure 5a: normalized JCT per placement, TLs-One and TLs-RR vs FIFO.

Per job: ``JCT_policy / JCT_fifo`` for the same job; bars show the mean
over the 21 concurrent jobs.  Paper: TLs-One up to 27 % better, TLs-RR up
to 16 %, and parity for placements #4 and above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.normalize import normalized_jct
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import (
    ALL_POLICIES,
    base_config,
    policy_scenarios,
    submit,
)
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario

DEFAULT_PLACEMENTS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class Fig5aResult:
    #: placement -> policy -> result
    results: Dict[int, Dict[Policy, ExperimentResult]]

    def normalized(self, placement: int, policy: Policy) -> Dict[str, float]:
        per_placement = self.results[placement]
        return normalized_jct(
            per_placement[policy].jcts, per_placement[Policy.FIFO].jcts
        )

    def mean_normalized(self, placement: int, policy: Policy) -> float:
        return float(np.mean(list(self.normalized(placement, policy).values())))

    def best_improvement(self, policy: Policy) -> float:
        """Max over placements of (1 - mean normalized JCT)."""
        return max(
            1.0 - self.mean_normalized(p, policy) for p in self.results
        )

    def claims(self) -> List[Claim]:
        """A large improvement at placement #1, parity from #4 up."""
        out = [
            Claim.compare("fig5a.p1.tls-one", "0.73 (27% better)",
                          self.mean_normalized(1, Policy.TLS_ONE), "<", 0.92),
            Claim.compare("fig5a.p1.tls-rr", "0.84 (16% better)",
                          self.mean_normalized(1, Policy.TLS_RR), "<", 0.95),
        ]
        for placement in sorted(p for p in self.results if p >= 4):
            for policy in (Policy.TLS_ONE, Policy.TLS_RR):
                out.append(Claim.within(
                    f"fig5a.p{placement}.{policy.value}", "comparable to FIFO",
                    self.mean_normalized(placement, policy), 0.94, 1.06,
                ))
        return out

    def render(self) -> str:
        table = TextTable(
            ["Placement", "TLs-One norm JCT", "TLs-RR norm JCT",
             "TLs-One min/max", "TLs-RR min/max"],
            title="Figure 5a: normalized JCT vs placement (lower is better; FIFO = 1.0)",
        )
        for idx in sorted(self.results):
            one = list(self.normalized(idx, Policy.TLS_ONE).values())
            rr = list(self.normalized(idx, Policy.TLS_RR).values())
            table.add_row(
                f"#{idx}",
                float(np.mean(one)), float(np.mean(rr)),
                f"{min(one):.2f}/{max(one):.2f}",
                f"{min(rr):.2f}/{max(rr):.2f}",
            )
        from repro.analysis.barchart import Bar, render_barchart

        bars = []
        for idx in sorted(self.results):
            bars.append(Bar(f"#{idx} tls-one",
                            self.mean_normalized(idx, Policy.TLS_ONE)))
            bars.append(Bar(f"#{idx} tls-rr",
                            self.mean_normalized(idx, Policy.TLS_RR)))
        chart = render_barchart(bars, width=40, reference=1.0,
                                title="normalized JCT (| = FIFO baseline)")
        return (
            table.render()
            + "\n\n" + chart
            + f"\n\nBest improvement: TLs-One "
            f"{self.best_improvement(Policy.TLS_ONE) * 100:.0f}% [paper: 27%], "
            f"TLs-RR {self.best_improvement(Policy.TLS_RR) * 100:.0f}% [paper: 16%]"
        )


def scenarios(
    base: Optional[ExperimentConfig] = None,
    placements: Sequence[int] = DEFAULT_PLACEMENTS,
    **overrides,
) -> List[Scenario]:
    """The full placement x policy grid as a flat scenario list."""
    cfg = base_config(base, **overrides)
    out: List[Scenario] = []
    for idx in placements:
        for scenario in policy_scenarios(
            cfg.replace(placement_index=idx), ALL_POLICIES
        ):
            out.append(scenario.with_tags(placement=idx))
    return out


def generate(
    base: Optional[ExperimentConfig] = None,
    placements: Sequence[int] = DEFAULT_PLACEMENTS,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> Fig5aResult:
    """Run every placement under all three policies (one flat campaign)."""
    grid = scenarios(base, placements, **overrides)
    flat = submit(grid, campaign)
    results: Dict[int, Dict[Policy, ExperimentResult]] = {}
    for scenario, result in zip(grid, flat):
        idx = int(scenario.tag("placement"))
        results.setdefault(idx, {})[Policy(scenario.tag("policy"))] = result
    return Fig5aResult(results=results)
