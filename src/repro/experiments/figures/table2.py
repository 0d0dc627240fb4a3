"""Table II and Result #3: normalized CPU and NIC utilization under placement #1.

Per host type (PS host vs worker hosts), mean utilization over the active
window, normalized over FIFO.  Paper: TLs-One/TLs-RR raise PS-host CPU
~1.04x/1.03x, worker CPU ~1.13x/1.12x, and NIC in/out ~1.20x/1.21x — its
Result #3, "TensorLights improves the NIC utilization by ~1.2x and the
worker CPU utilization by ~1.1x".  :meth:`Table2Result.direction_ok`
checks that direction (the exit code of ``tensorlights utilization``).
When the runs observe metrics, the result also carries one
metrics-registry snapshot per scenario, keyed by scenario content hash,
ready for :mod:`repro.telemetry.exporter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.figures.common import (
    ALL_POLICIES,
    base_config,
    policy_scenarios,
)
from repro.experiments.report import Claim, TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.telemetry import ActiveWindow

#: Rows of the paper's Table II: (resource, series, host kind, paper One/RR).
ROWS: Tuple[Tuple[str, str, str, str], ...] = (
    ("CPU", "cpu", "ps", "1.04x/1.03x"),
    ("CPU", "cpu", "worker", "1.13x/1.12x"),
    ("Network Inbound", "net_in", "all", "1.20x/1.21x"),
    ("Network Outbound", "net_out", "all", "1.20x/1.21x"),
)

#: The rows the paper's Result #3 makes a directional claim about.
DIRECTION_ROWS: Tuple[Tuple[str, str], ...] = (
    ("net_out", "all"),
    ("net_in", "all"),
    ("cpu", "worker"),
)

#: Slack for "≥ FIFO": sampled utilizations carry discretization noise.
DIRECTION_EPSILON = 0.005

#: (series, host kind, floor) of each per-policy claim: TensorLights never
#: lowers worker CPU and lifts the network side noticeably.
CLAIM_FLOORS: Tuple[Tuple[str, str, float], ...] = (
    ("cpu", "worker", 1.0),
    ("net_in", "all", 1.05),
    ("net_out", "all", 1.05),
    ("cpu", "ps", 0.95),
)


@dataclass
class Table2Result:
    """Utilization per policy plus optional metrics snapshots."""

    results: Dict[Policy, ExperimentResult]
    window: ActiveWindow
    #: scenario content hash -> the run's metrics snapshot (only populated
    #: when the runs observe metrics).  One extra entry under the key
    #: ``"campaign"`` holds the campaign-level snapshot — retry/backoff
    #: counters and aggregated watchdog violation counts.
    snapshots: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def _hosts(self, result: ExperimentResult, kind: str) -> List[str]:
        if kind == "ps":
            return result.ps_hosts
        if kind == "worker":
            return result.worker_only_hosts()
        return result.ps_hosts + result.worker_only_hosts()

    def utilization(self, policy: Policy, series: str, kind: str) -> float:
        """Mean utilization in the active window (fraction of capacity)."""
        result = self.results[policy]
        return result.mean_utilization(
            self._hosts(result, kind), series, self.window
        )

    def normalized(self, policy: Policy, series: str, kind: str) -> float:
        """Utilization relative to FIFO (the paper's normalization)."""
        return self.utilization(policy, series, kind) / self.utilization(
            Policy.FIFO, series, kind
        )

    def direction_ok(self) -> bool:
        """Does the run reproduce the paper's direction?

        True when TLs-One and TLs-RR are both >= FIFO (within
        :data:`DIRECTION_EPSILON`) on every :data:`DIRECTION_ROWS` entry —
        normalized NIC utilization (both directions, all hosts) and
        worker-host CPU utilization.
        """
        for series, kind in DIRECTION_ROWS:
            for policy in (Policy.TLS_ONE, Policy.TLS_RR):
                if self.normalized(policy, series, kind) < 1.0 - DIRECTION_EPSILON:
                    return False
        return True

    def claims(self) -> List[Claim]:
        """Result #3's direction, then each row against its own floor."""
        out = [Claim("table2.direction", "NIC ~1.2x, worker CPU ~1.1x",
                     "TLs >= FIFO" if self.direction_ok() else "below FIFO",
                     self.direction_ok())]
        for policy, paper in ((Policy.TLS_ONE, (1.13, 1.20, 1.20, 1.04)),
                              (Policy.TLS_RR, (1.12, 1.21, 1.21, 1.03))):
            for (series, kind, floor), value in zip(CLAIM_FLOORS, paper):
                out.append(Claim.compare(
                    f"table2.{policy.value}.{series}-{kind}", f"{value:.2f}x",
                    self.normalized(policy, series, kind), ">", floor,
                ))
        return out

    def render(self) -> str:
        table = TextTable(
            ["Resource type", "Host type", "FIFO", "TLs-One", "TLs-RR",
             "[paper One/RR]"],
            title=(
                "Table II (Result #3): normalized utilization under "
                "placement #1 (active window "
                f"[{self.window.start:.1f}s, {self.window.end:.1f}s]; FIFO "
                "column = mean utilization, policy columns relative to "
                "FIFO; larger is better)"
            ),
        )
        for label, series, kind, paper in ROWS:
            table.add_row(
                label,
                {"ps": "PS", "worker": "Worker", "all": "All"}[kind],
                f"{self.utilization(Policy.FIFO, series, kind):.3f}",
                f"{self.normalized(Policy.TLS_ONE, series, kind):.2f}x",
                f"{self.normalized(Policy.TLS_RR, series, kind):.2f}x",
                paper,
            )
        verdict = (
            "direction OK: TLs-One/TLs-RR >= FIFO on NIC and worker CPU"
            if self.direction_ok()
            else "direction NOT reproduced at this scale"
        )
        return table.render() + f"\n{verdict}\n"


def scenarios(
    base: Optional[ExperimentConfig] = None, quick: bool = False, **overrides
) -> List[Scenario]:
    """Placement #1 with host sampling under all three policies.

    ``quick`` is CI smoke scale: fewer iterations, unchanged topology, so
    the contention the paper measures still exists.
    """
    cfg = base_config(base, **overrides).replace(
        placement_index=1, sample_hosts=True
    )
    if quick:
        cfg = cfg.replace(iterations=min(cfg.iterations, 8))
    return policy_scenarios(cfg, ALL_POLICIES)


def _check_sampled(results: Dict[Policy, ExperimentResult], window: ActiveWindow) -> None:
    """Every host the table reads needs a sample inside the window."""
    for result in results.values():
        for host in result.ps_hosts + result.worker_only_hosts():
            if not any(window.contains(t) for t in result.samplers[host].cpu.times):
                interval = result.config.sample_interval
                raise ConfigError(
                    f"no utilization sample inside the active window "
                    f"[{window.start:.3g} s, {window.end:.3g} s): hosts are sampled "
                    f"every {interval:g} s; run more --iterations or pass a "
                    f"shorter --sample-interval"
                )


def generate(
    base: Optional[ExperimentConfig] = None,
    window: Optional[ActiveWindow] = None,
    campaign: Optional[Campaign] = None,
    quick: bool = False,
    **overrides,
) -> Table2Result:
    """Run placement #1 with telemetry under all three policies.

    Args:
        campaign: campaign to submit through; when it observes metrics
            the result keeps one snapshot per scenario, plus the campaign's
            own counters (retries, backoff seconds, aggregated watchdog
            violations) under the extra key ``"campaign"``.
        quick: see :func:`scenarios`.

    Raises :class:`ConfigError` when the runs end before any host sample
    falls inside the window.
    """
    camp = campaign if campaign is not None else Campaign()
    planned = scenarios(base, quick, **overrides)
    outcome = camp.run(planned)
    results = dict(zip(ALL_POLICIES, outcome.results))
    snapshots: Dict[str, Dict[str, Any]] = {}
    if camp.observe_metrics:
        snapshots = {
            scenario.key(): result.metrics_snapshot
            for scenario, result in zip(planned, outcome.results)
        }
        snapshots["campaign"] = outcome.campaign_metrics
    if window is None:
        # The paper uses a fixed window "when all concurrent jobs are
        # active" (100 s to 1250 s of a 2000+ s run).  Scaled equivalent:
        # end before the earliest job completion in ANY run (under
        # TLs-One high-priority jobs finish first), and start after the
        # launch/lockstep transient.
        all_active_until = min(
            min(m.end_time for m in r.metrics.values())
            for r in results.values()
        )
        window = ActiveWindow(0.45 * all_active_until, 0.95 * all_active_until)
    _check_sampled(results, window)
    return Table2Result(results=results, window=window, snapshots=snapshots)
