"""The Axis/Component registry: every tunable mechanism declared once.

A :class:`Component` is one mechanism of the system under study — a
priority-band budget, the rotation period, HTB borrowing, transport slow
start — bound either to an :class:`~repro.experiments.config.ExperimentConfig`
field or to a registered build hook (:mod:`repro.experiments.hooks`).
Each declaration carries the mechanism's value grid and its knockout
(ablated) value, so studies never restate them:
:class:`~repro.experiments.study.spec.StudySpec` turns components into
grid axes, and :func:`~repro.experiments.study.impact.run_study` uses the
``ablated`` values to measure per-component impact.  A field
component's default is whatever the study's base config holds; only a
hook component declares one, the value at which it adds no hook.

An :class:`Axis` is one grid dimension: either a component swept over
(a subset of) its declared values, or a raw config field (the form
:func:`~repro.experiments.study.spec.scenario_grid` uses).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.config import Policy
from repro.experiments.scenario import HookSpec, Scenario


@dataclass(frozen=True)
class Component:
    """One declared mechanism: what it drives, its grid, and its defaults.

    Attributes:
        name: the registry key (also the default axis name).
        description: one line for docs and the impact table.
        field: the :class:`ExperimentConfig` field this component drives —
            exactly one of ``field`` / ``hook`` must be set.
        hook: the registered build-hook name this component drives.
        hook_param: the hook parameter the component's value becomes.
        values: the component's declared study grid.
        default: hook components only: the value at which a scenario
            carries **no** hook (the mechanism is in its paper state by
            construction), so defaults never change content keys.  A
            field component's default is the base config's value.
        ablated: the knockout value :func:`run_study` measures impact
            with (a hook component's must differ from ``default``).
        tl_only: the mechanism only exists when a TensorLights
            controller is active (e.g. bands, rotation, HTB borrowing) —
            its knockout is meaningless under plain FIFO.
        config_overrides: extra config fields applied alongside a
            non-default hook value (e.g. ``rate_control`` replaces the
            priority policy, so it forces ``policy=fifo`` and the fluid
            network the original A6 study ran on).
    """

    name: str
    description: str
    field: Optional[str] = None
    hook: Optional[str] = None
    hook_param: Optional[str] = None
    values: Tuple[Any, ...] = ()
    default: Any = None
    ablated: Any = None
    tl_only: bool = False
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if (self.field is None) == (self.hook is None):
            raise ConfigError(
                f"component {self.name!r} must drive exactly one of a "
                "config field or a build hook"
            )
        if self.field is not None and self.default is not None:
            raise ConfigError(
                f"component {self.name!r} drives field {self.field!r}, "
                "whose default is the base config's value; it takes none"
            )
        if self.hook is not None and self.hook_param is None:
            raise ConfigError(
                f"component {self.name!r} drives hook {self.hook!r} but "
                "names no hook_param"
            )
        if not self.values:
            raise ConfigError(f"component {self.name!r} declares no values")
        if self.hook is not None and self.ablated == self.default:
            raise ConfigError(
                f"component {self.name!r}: ablated value must differ from "
                "the default"
            )
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(
            self, "config_overrides", tuple(self.config_overrides)
        )

    def fields(self, value: Any) -> Dict[str, Any]:
        """The config fields that setting this component to ``value`` writes.

        A field component writes its field; a hook component writes its
        ``config_overrides``, except at its default, where it writes
        nothing.
        """
        if self.field is not None:
            return {self.field: value}
        return {} if value == self.default else dict(self.config_overrides)

    def hooks(self, value: Any) -> Tuple[HookSpec, ...]:
        """The build hook that setting ``value`` adds (none at the default)."""
        if self.hook is None or value == self.default:
            return ()
        return ((self.hook, ((self.hook_param, value),)),)

    def apply(self, scenario: Scenario, value: Any) -> Scenario:
        """A copy of ``scenario`` with this component set to ``value``
        (``scenario`` itself when that writes nothing)."""
        fields, hooks = self.fields(value), self.hooks(value)
        if not fields and not hooks:
            return scenario
        return dataclasses.replace(
            scenario,
            config=scenario.config.replace(**fields),
            hooks=scenario.hooks + hooks,
        )

    def axis(self, values: Optional[Tuple[Any, ...]] = None) -> "Axis":
        """An :class:`Axis` sweeping this component (default: full grid)."""
        return Axis(
            name=self.name,
            values=tuple(values) if values is not None else self.values,
            component=self,
        )


@dataclass(frozen=True)
class Axis:
    """One grid dimension: a component sweep or a raw config-field sweep."""

    name: str
    values: Tuple[Any, ...]
    component: Optional[Component] = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))

    def fields(self, value: Any) -> Dict[str, Any]:
        """The config fields one value of this axis writes."""
        if self.component is not None:
            return self.component.fields(value)
        return {self.name: value}

    def hooks(self, value: Any) -> Tuple[HookSpec, ...]:
        """The build hooks one value of this axis adds."""
        return self.component.hooks(value) if self.component is not None else ()

    def format(self, value: Any) -> str:
        """The tag string for one value of this axis (enums by ``.value``)."""
        return value.value if hasattr(value, "value") else str(value)


# -- registry ---------------------------------------------------------------

_COMPONENTS: Dict[str, Component] = {}


def register_component(component: Component) -> Component:
    """Add a component to the registry (names are unique)."""
    if component.name in _COMPONENTS:
        raise ConfigError(
            f"component {component.name!r} already registered"
        )
    _COMPONENTS[component.name] = component
    return component


def get_component(name: str) -> Component:
    """Look up a registered component by name."""
    component = _COMPONENTS.get(name)
    if component is None:
        raise ConfigError(
            f"unknown component {name!r} (registered: {sorted(_COMPONENTS)})"
        )
    return component


def all_components() -> Dict[str, Component]:
    """A snapshot of the registry in declaration order (name -> component)."""
    return dict(_COMPONENTS)


# -- builtin declarations ---------------------------------------------------
#
# One entry per mechanism the paper's 27%/16% headline bundles (plus the
# §VII what-ifs and post-paper extensions).  Grids are the A1–A10
# tables' axes.

register_component(Component(
    name="bands",
    description="priority-band budget (1 degenerates to FIFO-with-HTB)",
    field="max_bands",
    values=(1, 2, 3, 6, 12),
    ablated=1,
    tl_only=True,
))

register_component(Component(
    name="rotation",
    description="TLs-RR rotation period T (huge T never rotates: TLs-One)",
    field="tls_interval",
    values=(0.5, 1.5, 3.0, 6.0),
    ablated=1e9,
    tl_only=True,
))

register_component(Component(
    name="window_jitter",
    description="±jitter on per-flow TCP windows (the straggler source)",
    field="window_jitter",
    values=(0.0, 0.25, 0.5),
    ablated=0.0,
))

register_component(Component(
    name="switch_buffer",
    description="per-port egress buffer bytes (ablated: fluid network)",
    field="switch_buffer_bytes",
    values=(1e6, 4e6, 16e6),
    ablated=None,
))

register_component(Component(
    name="compute_jitter",
    description="per-step compute time jitter sigma",
    field="compute_jitter_sigma",
    values=(0.0, 0.05, 0.1),
    ablated=0.0,
))

register_component(Component(
    name="segment_size",
    description="transport interleaving granularity in bytes (A3)",
    field="segment_bytes",
    values=(64 * 1024, 256 * 1024, 1024 * 1024),
    ablated=1024 * 1024,
))

register_component(Component(
    name="compression",
    description="gradient compression ratio composed with TLs (A9)",
    field="compression_ratio",
    values=(1.0, 0.25),
    ablated=0.25,
))

register_component(Component(
    name="multi_ps",
    description="parameter-server shards per job, colocated (A8)",
    field="n_ps",
    values=(1, 2, 4),
    ablated=2,
))

register_component(Component(
    name="sync",
    description="synchronous (barrier) vs asynchronous training (A7)",
    field="sync",
    values=(True, False),
    ablated=False,
))

register_component(Component(
    name="slow_start",
    description="transport slow-start ramp on every host",
    hook="slow_start",
    hook_param="enabled",
    values=(False, True),
    default=False,
    ablated=True,
))

register_component(Component(
    name="htb_borrowing",
    description="HTB work conservation: idle bands lend their bandwidth",
    hook="tl_controller",
    hook_param="work_conserving",
    values=(True, False),
    default=True,
    ablated=False,
    tl_only=True,
))

register_component(Component(
    name="adaptive",
    description="contention-triggered controller vs always-on (A10)",
    hook="tl_controller",
    hook_param="variant",
    values=("static", "adaptive"),
    default="static",
    ablated="adaptive",
    tl_only=True,
))

register_component(Component(
    name="rate_control",
    description="replace priorities with static rate shares (A6, §VII)",
    hook="rate_control",
    hook_param="accuracy",
    values=(1.0, 0.8, 0.6),
    default=None,
    ablated=0.8,
    config_overrides=(
        ("policy", Policy.FIFO),
        ("switch_buffer_bytes", None),
        ("rto", 0.2),
    ),
))
