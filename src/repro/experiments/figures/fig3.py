"""Figure 3: distribution of barrier wait time under placements #1 and #8.

Per barrier, the average (3a) and variance (3b) of waiting time among the
job's workers; samples pooled over all concurrent jobs.  The paper finds
the placement-#1 average is 3.71x placement-#8's, and the variance 4.37x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import base_config, submit
from repro.experiments.report import Claim, render_cdf
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario


@dataclass
class Fig3Result:
    results: Dict[int, ExperimentResult]  # placement index -> result

    def mean_wait(self, placement: int) -> float:
        return float(self.results[placement].barrier_wait_means().mean())

    def mean_variance(self, placement: int) -> float:
        return float(self.results[placement].barrier_wait_variances().mean())

    @property
    def heavy(self) -> int:
        return min(self.results)  # lower index = heavier colocation

    @property
    def mild(self) -> int:
        return max(self.results)

    @property
    def avg_wait_ratio(self) -> float:
        """Paper: 3.71x between placements #1 and #8."""
        return self.mean_wait(self.heavy) / self.mean_wait(self.mild)

    @property
    def variance_ratio(self) -> float:
        """Paper: 4.37x between placements #1 and #8."""
        return self.mean_variance(self.heavy) / self.mean_variance(self.mild)

    def claims(self) -> List[Claim]:
        """Heavy colocation inflates the mean and the variance of the wait."""
        return [
            Claim.compare("fig3.avg-wait-ratio", "3.71x", self.avg_wait_ratio, ">", 2.0),
            Claim.compare("fig3.variance-ratio", "4.37x", self.variance_ratio, ">", 2.0),
        ]

    def render(self) -> str:
        lines = ["Figure 3: distribution of barrier wait time (FIFO)"]
        lines.append("(a) per-barrier AVERAGE wait among workers of the same job:")
        for idx in sorted(self.results):
            lines.append(
                "  " + render_cdf(self.results[idx].barrier_wait_means(),
                                  f"placement #{idx}")
            )
        lines.append("(b) per-barrier VARIANCE of wait among workers:")
        for idx in sorted(self.results):
            lines.append(
                "  " + render_cdf(self.results[idx].barrier_wait_variances(),
                                  f"placement #{idx}")
            )
        lines.append(
            f"avg-wait ratio #{self.heavy} vs #{self.mild}: "
            f"{self.avg_wait_ratio:.2f}x  [paper: 3.71x]"
        )
        lines.append(
            f"variance ratio #{self.heavy} vs #{self.mild}: "
            f"{self.variance_ratio:.2f}x  [paper: 4.37x]"
        )
        return "\n".join(lines)


def scenarios(
    base: Optional[ExperimentConfig] = None,
    placements: Tuple[int, int] = (1, 8),
    **overrides,
) -> List[Scenario]:
    """The two FIFO placements whose barrier waits the figure compares."""
    cfg = base_config(base, **overrides).replace(policy=Policy.FIFO)
    if cfg.n_workers < 2:
        raise ConfigError(
            "fig3 compares barrier-wait variance across a job's workers, "
            f"so it needs n_workers >= 2, got {cfg.n_workers}"
        )
    return [
        Scenario(config=cfg.replace(placement_index=idx)).with_tags(placement=idx)
        for idx in placements
    ]


def generate(
    base: Optional[ExperimentConfig] = None,
    placements: Tuple[int, int] = (1, 8),
    campaign: Optional[Campaign] = None,
    **overrides,
) -> Fig3Result:
    """Run the two placements under FIFO and collect barrier waits."""
    results = submit(scenarios(base, placements, **overrides), campaign)
    return Fig3Result(results=dict(zip(placements, results)))
