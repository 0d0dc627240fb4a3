"""StudySpec: declarative grid expansion into content-hashable scenarios.

A :class:`StudySpec` names a base configuration, a tuple of
:class:`~repro.experiments.study.components.Axis` dimensions, a design
(``"grid"`` for the full cartesian product, ``"oat"`` for the fractional
one-at-a-time design) and an optional seed sweep, and expands them into a
deterministic list of :class:`~repro.experiments.scenario.Scenario`s.

The expansion guarantees two properties the campaign cache relies on:

* **Determinism** — the same spec always expands to the same scenario
  list (same order, same content keys).
* **Axis-order independence of keys** — reordering the ``axes`` tuple
  permutes the list but yields the identical *set* of content keys:
  config-field applications commute, and build hooks are merged (same
  hook name: parameters unioned, conflicts rejected) and sorted by name
  before the scenario is sealed.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import HookSpec, Scenario
from repro.experiments.study.components import Axis


def merge_hooks(hooks: Tuple[HookSpec, ...]) -> Tuple[HookSpec, ...]:
    """Union hooks of the same name and sort the result by name.

    Two components may drive the same hook (e.g. ``htb_borrowing`` and
    ``adaptive`` both parameterize ``tl_controller``); their parameter
    sets are merged.  The same parameter appearing twice with different
    values is a genuine conflict and raises :class:`ConfigError`.
    Sorting by name is what makes generated content keys independent of
    axis declaration order.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for name, params in hooks:
        current = merged.setdefault(name, {})
        for key, value in params:
            if key in current and current[key] != value:
                raise ConfigError(
                    f"hook {name!r} parameter {key!r} set twice with "
                    f"conflicting values ({current[key]!r} vs {value!r})"
                )
            current[key] = value
    return tuple(
        (name, tuple(sorted(params.items())))
        for name, params in sorted(merged.items())
    )


def _with_fields(scenario: Scenario, fields: Dict[str, Any]) -> Scenario:
    """``scenario`` with config ``fields`` set in one validated ``replace``."""
    if not fields:
        return scenario
    return dataclasses.replace(
        scenario, config=scenario.config.replace(**fields)
    )


@dataclass(frozen=True)
class StudyPoint:
    """One expanded grid point: raw axis values plus the sealed scenario."""

    overrides: Tuple[Tuple[str, Any], ...]
    scenario: Scenario
    seed: int
    is_baseline: bool = False

    def override_dict(self) -> Dict[str, Any]:
        """The axis values as a dict (axis name -> raw value)."""
        return dict(self.overrides)


@dataclass(frozen=True)
class StudySpec:
    """A declarative study: base config, axes, design, and seed sweep.

    Attributes:
        name: tagged onto every generated scenario (``study=<name>``).
        base: the configuration every grid point starts from.
        axes: the grid dimensions, applied in declaration order (the
            resulting content keys are order-independent, see module
            docstring).
        design: ``"grid"`` (cartesian product) or ``"oat"`` (the
            fractional design: the all-defaults point plus each axis
            varied alone — ``1 + sum(len(values) - overlap)`` points
            instead of the full product).
        seeds: replicate the whole design once per seed; empty means
            just ``base.seed``.
        baseline: optional extra reference configuration (e.g. plain
            FIFO) emitted first for every seed, tagged
            ``variant=baseline``.
    """

    name: str
    base: ExperimentConfig
    axes: Tuple[Axis, ...]
    design: str = "grid"
    seeds: Tuple[int, ...] = ()
    baseline: Optional[ExperimentConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.axes:
            raise ConfigError("a study needs at least one axis")
        if self.design not in ("grid", "oat"):
            raise ConfigError(
                f"design must be 'grid' or 'oat', got {self.design!r}"
            )
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate axis names in {names}")
        for axis in self.axes:
            if axis.component is None and not hasattr(self.base, axis.name):
                raise ConfigError(f"unknown config field {axis.name!r}")

    # -- expansion ----------------------------------------------------------

    def effective_seeds(self) -> Tuple[int, ...]:
        """The seed sweep (defaults to the base config's single seed)."""
        return self.seeds if self.seeds else (self.base.seed,)

    def expand(self) -> List[StudyPoint]:
        """Every grid point of the design, in deterministic order."""
        points: List[StudyPoint] = []
        for seed in self.effective_seeds():
            cfg = self.base.replace(seed=seed)
            if self.baseline is not None:
                scenario = Scenario(
                    config=self.baseline.replace(seed=seed),
                    tags=(("study", self.name), ("variant", "baseline"),
                          ("seed", str(seed))),
                )
                points.append(StudyPoint(
                    overrides=(), scenario=scenario, seed=seed,
                    is_baseline=True,
                ))
            if self.design == "grid":
                for combo in itertools.product(
                    *(axis.values for axis in self.axes)
                ):
                    overrides = tuple(
                        (axis.name, value)
                        for axis, value in zip(self.axes, combo)
                    )
                    points.append(self._point(cfg, overrides, seed))
            else:  # one-at-a-time
                defaults = tuple(
                    (axis.name, axis.default_value(self.base))
                    for axis in self.axes
                )
                points.append(self._point(cfg, defaults, seed))
                for varied in self.axes:
                    for value in varied.values:
                        if value == varied.default_value(self.base):
                            continue  # identical to the all-defaults point
                        overrides = tuple(
                            (axis.name,
                             value if axis is varied
                             else axis.default_value(self.base))
                            for axis in self.axes
                        )
                        points.append(self._point(cfg, overrides, seed))
        return points

    def _point(
        self,
        cfg: ExperimentConfig,
        overrides: Tuple[Tuple[str, Any], ...],
        seed: int,
    ) -> StudyPoint:
        """Seal one grid point into a tagged, hook-normalized scenario."""
        value_of = dict(overrides)
        # Runs of config-field settings go through one ``replace``, so a
        # point is validated whole, never half-applied (``architecture``
        # before the ``n_ps`` it needs).
        scenario = Scenario(config=cfg)
        fields: Dict[str, Any] = {}
        for axis in self.axes:
            if axis.field is not None:
                fields[axis.field] = value_of[axis.name]
            else:
                scenario = _with_fields(scenario, fields)
                fields = {}
                scenario = axis.apply(scenario, value_of[axis.name])
        scenario = _with_fields(scenario, fields)
        tags = (("study", self.name),) + tuple(
            (axis.name, axis.format(value_of[axis.name])) for axis in self.axes
        )
        if "seed" not in value_of:  # a seed axis already tags its value
            tags += (("seed", str(seed)),)
        scenario = dataclasses.replace(
            scenario, hooks=merge_hooks(scenario.hooks), tags=tags
        )
        return StudyPoint(overrides=overrides, scenario=scenario, seed=seed)

    def scenarios(self) -> List[Scenario]:
        """Just the scenarios of :meth:`expand`, in the same order."""
        return [point.scenario for point in self.expand()]

    def keys(self) -> List[str]:
        """The content keys of every generated scenario."""
        return [scenario.key() for scenario in self.scenarios()]

    def size(self) -> int:
        """How many scenarios :meth:`expand` will generate."""
        return len(self.expand())


def scenario_grid(
    base: ExperimentConfig, axes: Mapping[str, Sequence[Any]]
) -> List[Scenario]:
    """The cartesian product of config overrides as a tagged scenario list.

    Each axis name must be an :class:`ExperimentConfig` field; every
    scenario is tagged with its axis values (plus ``study=grid`` and its
    seed), so campaign results regroup without re-deriving the product
    order::

        scenarios = scenario_grid(cfg, {"placement_index": [1, 4, 8],
                                        "policy": list(ALL_POLICIES)})
    """
    return StudySpec(
        name="grid",
        base=base,
        axes=tuple(Axis(name, tuple(values)) for name, values in axes.items()),
    ).scenarios()
