"""Robustness experiment: JCT degradation under faults, per policy.

Not a paper figure — this sweep exercises the fault-injection layer:
each policy (FIFO, TLs-One, TLs-RR) runs the same workload under
increasing egress loss rates, and optionally with a mid-run PS crash
plus checkpoint recovery.  Reported per cell: average JCT and its
degradation relative to the same policy's fault-free run — i.e. how
gracefully each scheduler absorbs chaos, not which scheduler wins.

The campaign runs in report mode: a scenario that dies (or times out)
becomes a row in the failure section instead of aborting the sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.campaign import Campaign, CampaignFailure
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import ALL_POLICIES, base_config
from repro.experiments.report import TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.faults import FaultPlan, PSCrash, RecoverySpec

DEFAULT_LOSSES = (0.0, 0.01, 0.03)


@dataclass
class RobustnessResult:
    #: (policy, loss, crashed) -> result (missing cells failed)
    results: Dict[Tuple[Policy, float, bool], ExperimentResult]
    failures: List[CampaignFailure] = field(default_factory=list)

    def avg_jct(self, policy: Policy, loss: float, crashed: bool = False) -> float:
        return self.results[(policy, loss, crashed)].avg_jct

    def degradation(self, policy: Policy, loss: float, crashed: bool = False) -> float:
        """``avg JCT / fault-free avg JCT`` for the same policy (1.0 = unhurt)."""
        baseline = self.results.get((policy, 0.0, False))
        cell = self.results.get((policy, loss, crashed))
        if baseline is None or cell is None:
            return float("nan")
        return cell.avg_jct / baseline.avg_jct

    def render(self) -> str:
        policies = sorted({k[0] for k in self.results}, key=lambda p: p.value)
        cells = sorted({(k[1], k[2]) for k in self.results})
        headers = ["Condition"]
        for p in policies:
            headers += [f"{p.value} JCT", f"{p.value} degr."]
        table = TextTable(
            headers,
            title="Robustness: avg JCT and degradation vs fault-free run "
                  "(1.0 = unhurt)",
        )
        for loss, crashed in cells:
            label = f"loss={loss:g}" + (" +ps-crash" if crashed else "")
            row: List[object] = [label]
            for p in policies:
                cell = self.results.get((p, loss, crashed))
                row.append(cell.avg_jct if cell is not None else "failed")
                degr = self.degradation(p, loss, crashed)
                row.append(degr if not np.isnan(degr) else "-")
            table.add_row(*row)
        out = table.render()
        if self.failures:
            lines = [f"  {f.describe()}" for f in self.failures]
            out += "\n\nFailed scenarios:\n" + "\n".join(lines)
        return out


def _crash_plan(crash_at: float, crash_recover: float) -> FaultPlan:
    """A recoverable mid-run crash of job00's PS, barrier in proceed mode."""
    return FaultPlan(
        faults=(PSCrash(job="job00", at=crash_at, recover_after=crash_recover),),
        recovery=RecoverySpec(barrier_mode="proceed"),
    )


def scenarios(
    base: Optional[ExperimentConfig] = None,
    losses: Sequence[float] = DEFAULT_LOSSES,
    policies: Sequence[Policy] = ALL_POLICIES,
    ps_crash: bool = False,
    crash_at: float = 0.5,
    crash_recover: float = 0.5,
    **overrides,
) -> List[Scenario]:
    """The loss x policy grid (optionally doubled with a PS-crash variant)."""
    cfg = base_config(base, **overrides)
    out: List[Scenario] = []
    for policy in policies:
        for loss in losses:
            run_cfg = cfg.replace(policy=policy, netem_loss=loss)
            out.append(Scenario(config=run_cfg).with_tags(
                policy=policy.value, loss=loss, crashed=False,
            ))
            if ps_crash:
                out.append(Scenario(
                    config=run_cfg,
                    faults=_crash_plan(crash_at, crash_recover),
                ).with_tags(policy=policy.value, loss=loss, crashed=True))
    return out


def generate(
    base: Optional[ExperimentConfig] = None,
    losses: Sequence[float] = DEFAULT_LOSSES,
    policies: Sequence[Policy] = ALL_POLICIES,
    ps_crash: bool = False,
    crash_at: float = 0.5,
    crash_recover: float = 0.5,
    campaign: Optional[Campaign] = None,
    **overrides,
) -> RobustnessResult:
    """Run the robustness sweep (always in failure-report mode)."""
    grid = scenarios(base, losses, policies, ps_crash, crash_at,
                     crash_recover, **overrides)
    camp = copy.copy(campaign) if campaign is not None else Campaign()
    camp.on_failure = "report"
    outcome = camp.run(grid)
    results: Dict[Tuple[Policy, float, bool], ExperimentResult] = {}
    for scenario, result in zip(grid, outcome.results):
        if result is None:
            continue
        key = (
            Policy(scenario.tag("policy")),
            float(scenario.tag("loss")),
            scenario.tag("crashed") == "True",
        )
        results[key] = result
    return RobustnessResult(results=results, failures=list(outcome.failures))
