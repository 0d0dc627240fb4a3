"""Shared plumbing for figure generators.

Every generator builds a flat :class:`Scenario` list covering its whole
grid and submits it through one :class:`Campaign`, so a parallel executor
spans the entire figure (not one policy at a time) and a result cache
makes re-renders incremental.  ``campaign=None`` everywhere means the
default in-process serial campaign — byte-identical to the historical
run-in-a-loop behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig, Policy
from repro.experiments.runtime import ExperimentResult
from repro.experiments.scenario import Scenario


def base_config(base: Optional[ExperimentConfig], **overrides) -> ExperimentConfig:
    """The figure's starting configuration, with overrides applied."""
    cfg = base if base is not None else ExperimentConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def submit(
    scenarios: Sequence[Scenario], campaign: Optional[Campaign] = None
) -> List[ExperimentResult]:
    """Run scenarios through the given campaign (default: serial, no cache)."""
    camp = campaign if campaign is not None else Campaign()
    return camp.run(scenarios).results


def policy_scenarios(
    cfg: ExperimentConfig, policies: Iterable[Policy]
) -> List[Scenario]:
    """One scenario per policy over the same configuration."""
    return [
        Scenario(config=cfg.replace(policy=p)).with_tags(policy=p.value)
        for p in policies
    ]


ALL_POLICIES = (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)
