"""TensorLights generality study: ring all-reduce and mixed clusters.

Not a paper figure — the paper evaluates PS jobs only.  This sweep asks
whether end-host per-job priorities still help when the contention is
ring-shaped: every policy (FIFO, TLs-One, TLs-RR) runs the same workload
on an all-reduce-only cluster and on a mixed PS + all-reduce cluster
(see :class:`~repro.experiments.config.Architecture`).  Reported per
cell: average JCT, JCT normalized to the same architecture's FIFO run,
makespan, and the mean barrier wait — the quantity TensorLights
serializes away for PS jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.figures.common import ALL_POLICIES, base_config, submit
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario

DEFAULT_ARCHITECTURES = (Architecture.ALLREDUCE, Architecture.MIXED)


@dataclass
class CollectivesResult:
    """The architecture x policy grid of one generality sweep."""

    #: (architecture, policy) -> result
    results: Dict[Tuple[Architecture, Policy], ExperimentResult]

    def avg_jct(self, arch: Architecture, policy: Policy) -> float:
        return self.results[(arch, policy)].avg_jct

    def vs_fifo(self, arch: Architecture, policy: Policy) -> float:
        """``avg JCT / same-architecture FIFO avg JCT`` (< 1.0 = faster)."""
        return (self.results[(arch, policy)].avg_jct
                / self.results[(arch, Policy.FIFO)].avg_jct)

    def claims(self) -> List[Claim]:
        """TensorLights never makes either architecture meaningfully worse."""
        return [
            Claim.compare(f"collectives.{arch.value}.{policy.value}",
                          "extension: no worse than FIFO",
                          self.vs_fifo(arch, policy), "<", 1.05)
            for arch in (Architecture.ALLREDUCE, Architecture.MIXED)
            for policy in (Policy.TLS_ONE, Policy.TLS_RR)
        ]

    def render(self) -> str:
        """The text report (one row per architecture x policy cell)."""
        table = TextTable(
            ["Architecture", "Policy", "Avg JCT (s)", "vs FIFO",
             "Makespan (s)", "Barrier wait (s)"],
            title="TensorLights generality: ring all-reduce and mixed "
                  "PS+all-reduce clusters",
        )
        archs = sorted({k[0] for k in self.results}, key=lambda a: a.value)
        policies = sorted({k[1] for k in self.results}, key=lambda p: p.value)
        for arch in archs:
            for policy in policies:
                cell = self.results.get((arch, policy))
                if cell is None:
                    continue
                has_fifo = (arch, Policy.FIFO) in self.results
                table.add_row(
                    arch.value,
                    policy.value,
                    cell.avg_jct,
                    self.vs_fifo(arch, policy) if has_fifo else "-",
                    cell.makespan,
                    float(cell.barrier_wait_means().mean()),
                )
        return table.render()


def scenarios(
    base: Optional[ExperimentConfig] = None,
    architectures: Sequence[Architecture] = DEFAULT_ARCHITECTURES,
    policies: Sequence[Policy] = ALL_POLICIES,
    **overrides,
) -> List[Scenario]:
    """The architecture x policy grid as a flat tagged scenario list."""
    cfg = base_config(base, **overrides)
    out: List[Scenario] = []
    for arch in architectures:
        for policy in policies:
            run_cfg = cfg.replace(architecture=arch, policy=policy)
            out.append(Scenario(config=run_cfg).with_tags(
                architecture=arch.value, policy=policy.value,
            ))
    return out


def generate(
    base: Optional[ExperimentConfig] = None,
    architectures: Sequence[Architecture] = DEFAULT_ARCHITECTURES,
    policies: Sequence[Policy] = ALL_POLICIES,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> CollectivesResult:
    """Run the generality sweep and collect the grid."""
    architectures = list(architectures)
    policies = list(policies)
    grid = scenarios(base, architectures, policies, **overrides)
    results = submit(grid, campaign)
    keyed: Dict[Tuple[Architecture, Policy], ExperimentResult] = {}
    for scenario, result in zip(grid, results):
        key = (Architecture(scenario.tag("architecture")),
               Policy(scenario.tag("policy")))
        keyed[key] = result
    return CollectivesResult(results=keyed)
