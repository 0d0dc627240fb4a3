"""The component-impact figure: which mechanism earns its JCT share.

Not a figure from the paper, but the study its evaluation implies: knock
each registered component out of the full TensorLights system (TLs-RR on
the paper's contended placement) one at a time, replicate over a seed
sweep, and rank the components by how far the knockout moves the JCT
ratio from 1.0 — with paired bootstrap confidence intervals so a rank is
a claim, not noise.  Everything is generated declaratively by
:func:`repro.experiments.study.impact.run_study` and runs as one
:class:`~repro.experiments.campaign.Campaign` submission.

``generate(quick=True)`` is the CI smoke configuration: a tiny config,
two components, two seeds — enough to exercise grid generation, build
hooks, the parallel executor, and the cache in seconds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.common import base_config
from repro.experiments.scenario import Scenario
from repro.experiments.study.impact import ImpactReport, impact_spec, run_study

#: The two-component fractional grid ``--quick`` (and CI) runs: one
#: config-field knockout and one that exercises nothing but the config
#: layer would be too easy — ``bands`` is TLs-only, ``slow_start`` goes
#: through a registered build hook, so the smoke covers both paths.
QUICK_COMPONENTS: Tuple[str, ...] = ("bands", "slow_start")


def _study(
    base: Optional[ExperimentConfig] = None,
    quick: bool = False,
    components: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    **overrides,
) -> Dict[str, Any]:
    """The :func:`~repro.experiments.study.impact.run_study` arguments of
    one study.

    Args:
        base: starting configuration; default ``ExperimentConfig()``
            (or ``ExperimentConfig.tiny()`` under ``quick``).
        quick: CI smoke mode — tiny config (``overrides`` apply on top),
            ``QUICK_COMPONENTS``, two seeds from the config's, unless
            those are given explicitly.
        components / seeds / overrides: forwarded to ``run_study``.
    """
    if quick:
        # Overrides apply on top of the quick base, so a seed override
        # also moves the seed sweep.
        base = base_config(
            ExperimentConfig.tiny() if base is None else base, **overrides
        )
        overrides = {}
        components = QUICK_COMPONENTS if components is None else components
        seeds = (base.seed, base.seed + 1) if seeds is None else seeds
    return dict(base=base, components=components, seeds=seeds, **overrides)


def scenarios(**kwargs) -> List[Scenario]:
    """The scenarios :func:`generate` submits, in order (``kwargs`` as
    for :func:`_study`)."""
    return impact_spec(**_study(**kwargs)).scenarios()


def generate(
    campaign: Optional[Campaign] = None, confidence: float = 0.95, **kwargs
) -> ImpactReport:
    """Run the component-impact study (optionally the quick CI subset)
    through ``campaign`` at CI level ``confidence``; ``kwargs`` as for
    :func:`_study`."""
    return run_study(**_study(**kwargs), campaign=campaign, confidence=confidence)
