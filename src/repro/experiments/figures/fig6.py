"""Figure 6: barrier wait distributions under FIFO / TLs-One / TLs-RR.

Placement #1.  (a) the span of per-barrier average waits widens under
TensorLights (high-priority jobs wait less, low-priority more) while the
overall average stays comparable; (b) the variance of barrier wait —
the straggler indicator — drops (paper: mean/median variance reduced
26 %/40 % under TLs-One, 15 %/30 % under TLs-RR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import (
    ALL_POLICIES,
    base_config,
    policy_scenarios,
    submit,
)
from repro.experiments.report import Claim, render_cdf
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario


@dataclass
class Fig6Result:
    results: Dict[Policy, ExperimentResult]

    def mean_wait(self, policy: Policy) -> float:
        return float(self.results[policy].barrier_wait_means().mean())

    def wait_span(self, policy: Policy) -> float:
        means = self.results[policy].barrier_wait_means()
        return float(np.percentile(means, 95) - np.percentile(means, 5))

    def variance_reduction(self, policy: Policy, statistic: str = "mean") -> float:
        """1 - (policy variance / FIFO variance), via mean or median."""
        agg = np.mean if statistic == "mean" else np.median
        fifo = agg(self.results[Policy.FIFO].barrier_wait_variances())
        pol = agg(self.results[policy].barrier_wait_variances())
        return float(1.0 - pol / fifo)

    def claims(self) -> List[Claim]:
        """The median wait variance drops; the span of average waits widens."""
        return [
            Claim.compare("fig6.tls-one-median-variance", "40% lower",
                          self.variance_reduction(Policy.TLS_ONE, "median"), ">", 0.25),
            Claim.compare("fig6.tls-rr-median-variance", "30% lower",
                          self.variance_reduction(Policy.TLS_RR, "median"), ">", 0.25),
            Claim.compare("fig6.tls-one-wait-span", "wider than FIFO",
                          self.wait_span(Policy.TLS_ONE), ">", self.wait_span(Policy.FIFO)),
        ]

    def render(self) -> str:
        lines = [
            "Figure 6: barrier wait distributions under three policies "
            "(placement #1)"
        ]
        lines.append("(a) per-barrier AVERAGE wait:")
        for policy in self.results:
            lines.append(
                "  " + render_cdf(self.results[policy].barrier_wait_means(),
                                  policy.value)
            )
        lines.append("(b) per-barrier VARIANCE of wait (straggler indicator):")
        for policy in self.results:
            lines.append(
                "  " + render_cdf(self.results[policy].barrier_wait_variances(),
                                  policy.value)
            )
        for policy, paper in ((Policy.TLS_ONE, "26%/40%"), (Policy.TLS_RR, "15%/30%")):
            lines.append(
                f"{policy.value}: variance reduction mean/median = "
                f"{self.variance_reduction(policy, 'mean') * 100:.0f}%/"
                f"{self.variance_reduction(policy, 'median') * 100:.0f}%"
                f"  [paper: {paper}]"
            )
        return "\n".join(lines)


def scenarios(base: Optional[ExperimentConfig] = None, **overrides) -> List[Scenario]:
    """Placement #1 under all three policies."""
    cfg = base_config(base, **overrides).replace(placement_index=1)
    if cfg.n_workers < 2:
        raise ConfigError(
            "fig6 compares barrier-wait variance across a job's workers, "
            f"so it needs n_workers >= 2, got {cfg.n_workers}"
        )
    return policy_scenarios(cfg, ALL_POLICIES)


def generate(
    base: Optional[ExperimentConfig] = None,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> Fig6Result:
    """Run placement #1 under all three policies."""
    results = submit(scenarios(base, **overrides), campaign)
    return Fig6Result(results=dict(zip(ALL_POLICIES, results)))
