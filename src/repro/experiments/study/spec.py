"""StudySpec: declarative grid expansion into content-hashable scenarios.

A :class:`StudySpec` names a base configuration, a tuple of
:class:`~repro.experiments.study.components.Axis` dimensions, a design
(``"grid"`` for the full cartesian product, ``"oat"`` for the base plus
each axis alone) and an optional seed sweep, and expands them into a
deterministic list of :class:`~repro.experiments.scenario.Scenario`s.

The expansion guarantees two properties the campaign cache relies on:

* **Determinism** — the same spec always expands to the same scenario
  list (same order, same content keys).
* **Axis-order independence of keys** — reordering the ``axes`` tuple
  permutes the list but yields the identical *set* of content keys, or
  raises in every order.  A point's config-field writes are applied in
  one ``replace``, and two axes that write one field with different
  values (a hook component's ``config_overrides`` included) raise
  :class:`ConfigError`; build hooks are merged (same hook name:
  parameters unioned, conflicts rejected) and sorted by name.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class StudyPoint:
    """One expanded design point: the axis values it sets, plus the sealed
    scenario (an ``"oat"`` point sets only its varied axis, the base
    point none)."""

    overrides: Tuple[Tuple[str, Any], ...]
    scenario: Scenario
    seed: int
    is_baseline: bool = False


@dataclass(frozen=True)
class StudySpec:
    """A declarative study: base config, axes, design, and seed sweep.

    Attributes:
        name: tagged onto every generated scenario (``study=<name>``).
        base: the configuration every grid point starts from.
        axes: the design's dimensions; their order sets the list order
            and nothing else (see module docstring).
        design: ``"grid"`` (cartesian product) or ``"oat"`` (one at a
            time: the base itself, then each axis alone at each of its
            values with every other axis left as the base has it —
            ``1 + sum(len(values))`` points instead of the full product;
            a value equal to the base's still gets its own point).
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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {list(self.seeds)}")
        for axis in self.axes:
            if axis.component is None and not hasattr(self.base, axis.name):
                raise ConfigError(f"unknown config field {axis.name!r}")
            if any(v in axis.values[:i] for i, v in enumerate(axis.values)):
                raise ConfigError(
                    f"axis {axis.name!r} repeats a value in {list(axis.values)}"
                )

    # -- expansion ----------------------------------------------------------

    def expand(self) -> List[StudyPoint]:
        """Every grid point of the design, in deterministic order."""
        points: List[StudyPoint] = []
        for seed in self.seeds or (self.base.seed,):
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
                    points.append(
                        self._point(cfg, tuple(zip(self.axes, combo)), seed)
                    )
            else:  # one at a time, centred on the base
                points.append(self._point(cfg, (), seed))
                for axis in self.axes:
                    for value in axis.values:
                        points.append(self._point(cfg, ((axis, value),), seed))
        return points

    def _point(
        self,
        cfg: ExperimentConfig,
        settings: Tuple[Tuple[Axis, Any], ...],
        seed: int,
    ) -> StudyPoint:
        """Seal one design point into a tagged, hook-normalized scenario.

        Every axis in ``settings`` writes its config fields and adds its
        hooks; the fields go through one ``replace``, so a point is
        validated whole, never half-applied (``architecture`` before the
        ``n_ps`` it needs).
        """
        written: Dict[str, Tuple[str, Any]] = {}  # field -> (axis, value)
        hooks: List[HookSpec] = []
        for axis, value in settings:
            for name, new in axis.fields(value).items():
                writer, old = written.setdefault(name, (axis.name, new))
                if (type(old), old) != (type(new), new):
                    raise ConfigError(
                        f"axes {writer!r} and {axis.name!r} set {name!r} to "
                        f"conflicting values ({old!r} vs {new!r})"
                    )
            hooks.extend(axis.hooks(value))
        fields = {name: value for name, (_, value) in written.items()}
        overrides = tuple((axis.name, value) for axis, value in settings)
        tags = (("study", self.name),) + tuple(
            (axis.name, axis.format(value)) for axis, value in settings
        )
        if "seed" not in fields:  # a seed axis already tags its value
            tags += (("seed", str(seed)),)
        scenario = Scenario(
            config=cfg.replace(**fields) if fields else cfg,
            hooks=merge_hooks(tuple(hooks)),
            tags=tags,
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


def seed_sweep(
    seeds: Optional[Sequence[int]], base: ExperimentConfig, count: int
) -> Tuple[int, ...]:
    """A paired-bootstrap study's seed sweep: ``seeds``, else ``count``
    consecutive seeds from ``base.seed``; it needs >= 2 distinct seeds."""
    sweep = (tuple(seeds) if seeds is not None
             else tuple(base.seed + i for i in range(count)))
    if len(set(sweep)) < 2:
        raise ConfigError(
            f"--seeds needs >= 2 seeds, all distinct, for paired bootstrap "
            f"CIs; got {list(sweep)}"
        )
    return sweep


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
