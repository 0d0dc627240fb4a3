"""Flow-completion-time tails (supplementary analysis, not a paper figure).

The paper measures stragglers at the application layer (barrier waits);
this view measures them at the network layer: the distribution of
model-update FCTs under each policy at placement #1.  Under FIFO every
fan-out transfer stretches toward the collision-window tail; under
TensorLights the high-priority jobs' transfers collapse to their
serialization time and the overall tail-to-median ratio drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import ALL_POLICIES, base_config
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario
from repro.telemetry.flows import FlowCollector


@dataclass
class FctResult:
    collectors: Dict[Policy, FlowCollector]
    kind: str = "model_update"

    def percentile(self, policy: Policy, p: float) -> float:
        return self.collectors[policy].percentile(self.kind, p)

    def tail_ratio(self, policy: Policy, p: float = 99.0) -> float:
        return self.collectors[policy].tail_ratio(self.kind, p)

    def claims(self) -> List[Claim]:
        """TLs-One cuts FIFO's median FCT sharply; both move every update."""
        fifo_n = len(self.collectors[Policy.FIFO].fcts(self.kind))
        tls_n = len(self.collectors[Policy.TLS_ONE].fcts(self.kind))
        return [
            Claim.compare("fct.tls-one-p50", "extension: well below FIFO",
                          self.percentile(Policy.TLS_ONE, 50), "<",
                          0.5 * self.percentile(Policy.FIFO, 50)),
            Claim("fct.samples", "same updates under every policy",
                  f"{fifo_n} FIFO, {tls_n} TLs-One", fifo_n == tls_n > 0),
        ]

    def render(self) -> str:
        table = TextTable(
            ["Policy", "p50 FCT (s)", "p90", "p99", "p99/p50"],
            title=(
                "Model-update flow completion times at placement #1 "
                "(network-layer straggler view)"
            ),
        )
        for policy, c in self.collectors.items():
            table.add_row(
                policy.value,
                c.percentile(self.kind, 50),
                c.percentile(self.kind, 90),
                c.percentile(self.kind, 99),
                self.tail_ratio(policy),
            )
        return table.render()


def scenarios(base: Optional[ExperimentConfig] = None, **overrides) -> List[Scenario]:
    """Placement #1 under all three policies."""
    cfg = base_config(base, **overrides).replace(placement_index=1)
    return [Scenario(config=cfg.replace(policy=policy)) for policy in ALL_POLICIES]


def _run_with_collector(scenario: Scenario) -> FlowCollector:
    """Run one scenario with an FCT collector on its network.

    Flow records are in-process observers (not part of the serializable
    result), so this study uses the runtime layer directly and stays
    serial.
    """
    rt = materialize(scenario)
    collector = FlowCollector.install(rt.cluster.network)
    rt.run()
    return collector


def generate(base: Optional[ExperimentConfig] = None, **overrides) -> FctResult:
    """Run placement #1 under all three policies with an FCT collector."""
    return FctResult(collectors={
        policy: _run_with_collector(scenario)
        for policy, scenario in zip(ALL_POLICIES, scenarios(base, **overrides))
    })
