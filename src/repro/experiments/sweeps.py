"""Generic parameter sweeps over experiment configurations.

A sweep is the cartesian product of override axes applied to a base
config, yielding one :class:`ExperimentResult` per point plus a long-form
record table — the workhorse behind custom studies::

    result = sweep(
        ExperimentConfig(),
        axes={"placement_index": [1, 4, 8],
              "policy": [Policy.FIFO, Policy.TLS_ONE]},
    )
    print(result.render())
    print(result.to_csv())

The grid itself comes from the declarative study engine: the ``axes``
mapping becomes a :class:`~repro.experiments.study.spec.StudySpec` over
raw config-field :class:`~repro.experiments.study.components.Axis`
dimensions, so sweeps share the same deterministic expansion (and
content-key discipline) as registered-component studies.  ``render()``
and ``to_csv()`` read one shared :class:`TextTable`, so the printed table
and the CSV export can never disagree on headers or formatting.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.campaign import Campaign, CampaignEvent
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import TextTable
from repro.experiments.runtime import ExperimentResult
from repro.experiments.study.components import Axis, format_axis_value
from repro.experiments.study.spec import StudySpec


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the overrides applied and the measured summary."""

    overrides: Tuple[Tuple[str, Any], ...]
    avg_jct: float
    makespan: float
    barrier_wait_mean: float
    barrier_wait_var_median: float

    def override_dict(self) -> Dict[str, Any]:
        """The overrides as a dict (field name -> value)."""
        return dict(self.overrides)


@dataclass
class SweepResult:
    """The outcome of one sweep: axes, per-point summaries, raw results."""

    axes: Dict[str, Sequence[Any]]
    points: List[SweepPoint]
    results: List[ExperimentResult] = field(repr=False, default_factory=list)

    def best(self, key: Callable[[SweepPoint], float] = lambda p: p.avg_jct) -> SweepPoint:
        """The point minimizing ``key`` (default: average JCT)."""
        return min(self.points, key=key)

    def filtered(self, **conditions: Any) -> List[SweepPoint]:
        """Points whose overrides match all given key=value conditions."""
        out = []
        for p in self.points:
            d = p.override_dict()
            if all(d.get(k) == v for k, v in conditions.items()):
                out.append(p)
        return out

    def _table(self) -> TextTable:
        axis_names = list(self.axes)
        table = TextTable(
            axis_names + ["Avg JCT (s)", "Makespan (s)", "Barrier wait",
                          "Median var"],
            title=f"Sweep over {', '.join(axis_names)} "
                  f"({len(self.points)} points)",
        )
        for p in self.points:
            d = p.override_dict()
            table.add_row(
                *[format_axis_value(d[a]) for a in axis_names],
                p.avg_jct, p.makespan, p.barrier_wait_mean,
                p.barrier_wait_var_median,
            )
        return table

    def render(self) -> str:
        """The aligned plain-text table."""
        return self._table().render()

    def to_csv(self) -> str:
        """The same table as CSV (identical headers and cell formatting)."""
        return self._table().to_csv()


def sweep(
    base: ExperimentConfig,
    axes: Mapping[str, Sequence[Any]],
    keep_results: bool = False,
    progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
    campaign: Optional[Campaign] = None,
) -> SweepResult:
    """Run the cartesian product of ``axes`` overrides on ``base``.

    Args:
        keep_results: retain full :class:`ExperimentResult` objects
            (memory-heavy for big sweeps; summaries are always kept).
        progress: optional callback ``(i, total, overrides)``, fired when
            a point starts executing (or is served from the cache).
        campaign: run the grid through this campaign (parallel executor,
            result cache); the default runs serially in-process.
    """
    if not axes:
        raise ConfigError("sweep needs at least one axis")
    spec = StudySpec(
        name="sweep",
        base=base,
        axes=tuple(
            Axis(name=name, values=tuple(values))
            for name, values in axes.items()
        ),
    )
    grid = spec.expand()
    override_dicts = [point.override_dict() for point in grid]
    scenarios = [point.scenario for point in grid]

    camp = campaign if campaign is not None else Campaign()
    if progress is not None:
        chained = camp.progress

        def adapter(event: CampaignEvent) -> None:
            if event.status in ("running", "cached"):
                progress(event.index, len(grid), override_dicts[event.index])
            if chained is not None:
                chained(event)

        camp = copy.copy(camp)
        camp.progress = adapter

    full = camp.run(scenarios).results
    points: List[SweepPoint] = []
    for overrides, res in zip(override_dicts, full):
        variances = res.barrier_wait_variances()
        points.append(
            SweepPoint(
                overrides=tuple(overrides.items()),
                avg_jct=res.avg_jct,
                makespan=res.makespan,
                barrier_wait_mean=float(res.barrier_wait_means().mean()),
                barrier_wait_var_median=float(np.median(variances))
                if variances.size else 0.0,
            )
        )
    results = list(full) if keep_results else []
    return SweepResult(axes=dict(axes), points=points, results=results)
