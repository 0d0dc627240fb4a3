"""Experiment harness: scenarios, runtime, campaigns, per-figure generators.

The pipeline is layered (see ``docs/architecture.md``, "Campaign layer"):

* :mod:`repro.experiments.scenario` — declarative, picklable descriptions
  of one run (config + placement override + tags);
* :mod:`repro.experiments.runtime` — materializes a scenario into a live
  ``Simulator``/``Cluster``/``DLApplication`` stack and collects a
  serializable :class:`ExperimentResult`;
* :mod:`repro.experiments.campaign` — executes scenario lists through
  pluggable serial/parallel executors with an on-disk result cache;
* :mod:`repro.experiments.study` — the declarative layer above: a
  component registry (every tunable mechanism declared once, config
  field or build hook), grid/OAT expansion into content-hashable
  scenarios, and the ranked component-impact study.

Every table and figure in the paper's evaluation has a generator module
under :mod:`repro.experiments.figures` and a benchmark under
``benchmarks/`` that prints the same rows/series the paper reports.
"""

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
from repro.experiments.runtime import ExperimentResult, execute_scenario, materialize
from repro.experiments.scenario import Scenario, scenario_grid

__all__ = [
    "Architecture",
    "Campaign",
    "CampaignEvent",
    "CampaignFailure",
    "CampaignResult",
    "ExecutionOutcome",
    "ExperimentConfig",
    "ExperimentResult",
    "ParallelExecutor",
    "Policy",
    "ResultCache",
    "Scenario",
    "SerialExecutor",
    "execute_scenario",
    "materialize",
    "scenario_grid",
]
