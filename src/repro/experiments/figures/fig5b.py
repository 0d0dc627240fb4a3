"""Figure 5b: normalized JCT vs local batch size at placement #1.

The local batch size is the contention knob: a smaller batch means less
computation per local step, hence more frequent model/gradient updates and
heavier traffic contention.  Paper: TLs-One's improvement grows to 31 %
(TLs-RR 17 %) at the smallest batch, and contention fades at large batches.
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

DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16)


@dataclass
class Fig5bResult:
    #: batch size -> policy -> result
    results: Dict[int, Dict[Policy, ExperimentResult]]

    def mean_normalized(self, batch: int, policy: Policy) -> float:
        per_batch = self.results[batch]
        norm = normalized_jct(per_batch[policy].jcts, per_batch[Policy.FIFO].jcts)
        return float(np.mean(list(norm.values())))

    def best_improvement(self, policy: Policy) -> float:
        return max(1.0 - self.mean_normalized(b, policy) for b in self.results)

    def claims(self) -> List[Claim]:
        """The smallest batch gains most; the largest is compute-bound."""
        smallest, largest = min(self.results), max(self.results)
        small = self.mean_normalized(smallest, Policy.TLS_ONE)
        large = self.mean_normalized(largest, Policy.TLS_ONE)
        return [
            Claim.compare("fig5b.gain-grows", "smaller batch, larger gain", small, "<", large),
            Claim.compare(f"fig5b.b{smallest}.tls-one", "0.69 (31% better)", small, "<", 0.9),
            Claim.within(f"fig5b.b{largest}.tls-one", "comparable to FIFO", large, 0.93, 1.07),
        ]

    def render(self) -> str:
        table = TextTable(
            ["Local batch", "FIFO avg JCT (s)", "TLs-One norm", "TLs-RR norm"],
            title=(
                "Figure 5b: normalized JCT vs local batch size "
                "(placement #1; smaller batch = heavier contention)"
            ),
        )
        for batch in sorted(self.results):
            table.add_row(
                batch,
                self.results[batch][Policy.FIFO].avg_jct,
                self.mean_normalized(batch, Policy.TLS_ONE),
                self.mean_normalized(batch, Policy.TLS_RR),
            )
        return (
            table.render()
            + f"\n\nBest improvement: TLs-One "
            f"{self.best_improvement(Policy.TLS_ONE) * 100:.0f}% [paper: 31%], "
            f"TLs-RR {self.best_improvement(Policy.TLS_RR) * 100:.0f}% [paper: 17%]"
        )


def scenarios(
    base: Optional[ExperimentConfig] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    **overrides,
) -> List[Scenario]:
    """Every policy at each local batch size, at placement #1."""
    cfg = base_config(base, **overrides).replace(placement_index=1)
    return [
        scenario.with_tags(batch=batch)
        for batch in batch_sizes
        for scenario in policy_scenarios(
            cfg.replace(local_batch_size=batch), ALL_POLICIES
        )
    ]


def generate(
    base: Optional[ExperimentConfig] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> Fig5bResult:
    """Sweep the local batch size at placement #1 under all policies."""
    grid = scenarios(base, batch_sizes, **overrides)
    flat = submit(grid, campaign)
    results: Dict[int, Dict[Policy, ExperimentResult]] = {}
    for scenario, result in zip(grid, flat):
        batch = int(scenario.tag("batch"))
        results.setdefault(batch, {})[Policy(scenario.tag("policy"))] = result
    return Fig5bResult(results=results)
