"""The stable public API of the reproduction.

Import experiment-facing names from here::

    from repro.api import ExperimentConfig, Policy, Scenario, Runtime

Everything in ``__all__`` follows the compatibility policy in
``docs/api.md``: additions are backwards-compatible, removals go through a
deprecation cycle of at least one minor release with a
:class:`DeprecationWarning` shim.  Modules outside this facade
(``repro.net.*`` internals, figure generators, ...) may change freely
between releases.

The facade re-exports — it defines nothing — so importing it pulls in the
experiment pipeline but none of the optional analysis/figure extras.
"""

from __future__ import annotations

from repro.errors import JournalError, WatchdogError
from repro.experiments.campaign import (
    Campaign,
    CampaignEvent,
    CampaignFailure,
    CampaignResult,
    ExecutionOutcome,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.hooks import (
    BuildHook,
    get_build_hook,
    register_build_hook,
)
from repro.experiments.journal import CampaignJournal, JournalState, list_runs
from repro.experiments.runtime import (
    ExperimentResult,
    HostSamples,
    Runtime,
    execute_scenario,
    materialize,
)
from repro.experiments.scenario import Scenario
from repro.experiments.study import (
    Axis,
    Component,
    ImpactReport,
    StudySpec,
    get_component,
    register_component,
    run_study,
    scenario_grid,
)
from repro.experiments.workloads import WorkloadSpec
from repro.faults.plan import FaultPlan
from repro.placement import (
    FingerprintStore,
    JobFingerprint,
    PlacementContext,
    PlacementJob,
    PlacementPolicy,
    get_placement_policy,
    profile_job_shape,
    register_placement_policy,
)
from repro.sim.watchdog import Watchdog, WatchdogViolation
from repro.telemetry import (
    ActiveWindow,
    MetricsRegistry,
    scrape_cluster,
    window_mean,
)

__all__ = [
    "ActiveWindow",
    "Architecture",
    "Axis",
    "BuildHook",
    "Campaign",
    "CampaignEvent",
    "CampaignFailure",
    "CampaignJournal",
    "CampaignResult",
    "Component",
    "ExecutionOutcome",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultPlan",
    "FingerprintStore",
    "HostSamples",
    "ImpactReport",
    "JobFingerprint",
    "JournalError",
    "JournalState",
    "MetricsRegistry",
    "ParallelExecutor",
    "PlacementContext",
    "PlacementJob",
    "PlacementPolicy",
    "Policy",
    "ResultCache",
    "Runtime",
    "Scenario",
    "SerialExecutor",
    "StudySpec",
    "Watchdog",
    "WatchdogError",
    "WatchdogViolation",
    "WorkloadSpec",
    "execute_scenario",
    "get_build_hook",
    "get_component",
    "get_placement_policy",
    "list_runs",
    "materialize",
    "profile_job_shape",
    "register_build_hook",
    "register_component",
    "register_placement_policy",
    "run_study",
    "scenario_grid",
    "scrape_cluster",
    "window_mean",
]
