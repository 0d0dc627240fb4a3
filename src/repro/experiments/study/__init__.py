"""The declarative study engine: components, grids, and impact ranking.

Three declarative layers:

* :mod:`~repro.experiments.study.components` — an :class:`Axis` /
  :class:`Component` registry where every tunable TensorLights mechanism
  is declared exactly once: its name, the
  :class:`~repro.experiments.config.ExperimentConfig` field or build
  hook it drives, its value grid and its knockout value.
* :mod:`~repro.experiments.study.spec` — a :class:`StudySpec` that
  expands a set of axes into a full or base-centred one-at-a-time grid
  of content-hashable :class:`~repro.experiments.scenario.Scenario`s
  (deterministic; axis order never changes what runs);
  ``scenario_grid`` is its one-call form over raw config fields.
* :mod:`~repro.experiments.study.impact` — :func:`run_study`, which runs
  per-component knockouts plus FIFO/TLs baselines over a seed sweep, as
  a one-at-a-time :class:`StudySpec`, in ONE :class:`~repro.experiments.campaign.Campaign` submission (so a
  parallel executor and the result cache span the whole study) and ranks
  components by JCT impact with bootstrap confidence intervals.

:mod:`~repro.experiments.study.ablations` builds the A1–A10 tables on
these layers.
"""

from repro.experiments.study.components import (
    Axis,
    Component,
    all_components,
    get_component,
    register_component,
)
from repro.experiments.study.impact import (
    ComponentImpact,
    ImpactReport,
    run_study,
)
from repro.experiments.study.spec import StudyPoint, StudySpec, scenario_grid

__all__ = [
    "Axis",
    "Component",
    "ComponentImpact",
    "ImpactReport",
    "StudyPoint",
    "StudySpec",
    "all_components",
    "get_component",
    "register_component",
    "run_study",
    "scenario_grid",
]
