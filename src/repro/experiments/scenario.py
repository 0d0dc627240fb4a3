"""The Scenario layer: declarative, picklable descriptions of one run.

A :class:`Scenario` fully determines one experiment — the
:class:`~repro.experiments.config.ExperimentConfig`, an optional placement
override, and free-form tags for regrouping results downstream.  It holds
no live simulator state, so it crosses process boundaries (the parallel
executor) and hashes to a stable content key (the result cache).

The split is::

    Scenario  (this module)   what to run        — declarative, picklable
    Runtime   (runtime.py)    how to run it      — materializes simulators
    Campaign  (campaign.py)   running many       — executors + result cache
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cluster.placement import PlacementSpec
from repro.errors import ConfigError
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.faults.plan import FaultPlan, plan_from_dict

#: Bumped whenever scenario execution semantics change in a way that makes
#: previously cached results stale (part of every cache key).
#: 2: scenarios gained a fault plan and configs gained netem fields.
#: 3: configs gained the training architecture (PS / all-reduce / mixed).
#: 4: scenarios gained declarative build hooks (and results a
#:    ``tc_reconfigurations`` counter).
#: 5: configs gained ``placement_policy`` (contention-aware PS placement);
#:    the field is dropped from ``config_to_dict`` at its default so
#:    oblivious content keys — and pinned result hashes — are unchanged.
SCENARIO_SCHEMA = 5

#: JSON-safe scalar types a build-hook parameter may carry.  Hooks are
#: part of the scenario content key, so their parameters must serialize
#: canonically.
HOOK_PARAM_TYPES = (type(None), bool, int, float, str)

#: One declarative build hook: ``(registered name, ((param, value), ...))``.
#: See :mod:`repro.experiments.hooks` for the registry the names refer to.
HookSpec = Tuple[str, Tuple[Tuple[str, Any], ...]]


#: :class:`ExperimentConfig` field names in declaration order.  Every
#: field is a scalar or an enum, so a flat walk needs no recursive copy.
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """A JSON-safe dict of a config's fields (enums as their values).

    ``placement_policy`` is omitted at its default (``"oblivious"``) so
    that configs predating the field keep their content keys — and their
    pinned result hashes — byte-identical.  :func:`config_from_dict`
    restores the default for the missing key.
    """
    out = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    out["policy"] = config.policy.value
    out["architecture"] = Architecture(config.architecture).value
    if out["placement_policy"] == "oblivious":
        del out["placement_policy"]
    return out


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict`.

    Unknown keys are rejected — a cache entry written by a different
    config schema must not silently deserialize into the wrong run.
    """
    unknown = set(data).difference(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    kwargs = dict(data)
    kwargs["policy"] = Policy(kwargs["policy"])
    if "architecture" in kwargs:
        kwargs["architecture"] = Architecture(kwargs["architecture"])
    return ExperimentConfig(**kwargs)


def _canonical_hooks(hooks) -> Tuple[HookSpec, ...]:
    """Normalize a hooks declaration into its canonical hashable form.

    Hook order is preserved (it is execution order); parameters are
    sorted by name so the same parameters always hash identically, and
    non-scalar parameter values are rejected up front.
    """
    out: List[HookSpec] = []
    for entry in hooks:
        try:
            name, params = entry
        except (TypeError, ValueError):
            raise ConfigError(
                f"hook entries are (name, params) pairs, got {entry!r}"
            )
        pairs = []
        items = params.items() if isinstance(params, Mapping) else params
        for key, value in items:
            if not isinstance(value, HOOK_PARAM_TYPES):
                raise ConfigError(
                    f"hook {name!r} parameter {key!r} must be a JSON "
                    f"scalar, got {type(value).__name__}"
                )
            pairs.append((str(key), value))
        pairs.sort(key=lambda kv: kv[0])
        out.append((str(name), tuple(pairs)))
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one experiment run.

    Attributes:
        config: the full experiment configuration (includes the seed).
        placement: optional override of ``config.placement()`` — used by
            the scheduler-policy ablation (A5) and custom studies.
        faults: optional :class:`~repro.faults.plan.FaultPlan` injected
            into the run.  Part of the content key: a faulted run never
            shares a cache entry with its fault-free twin.
        hooks: declarative mid-build hooks, ``(name, params)`` pairs
            naming entries in the :mod:`repro.experiments.hooks` registry
            (e.g. A6's rate-control qdiscs, A10's adaptive controller).
            Unlike the in-process ``materialize(...)`` keyword hooks,
            these are picklable and **part of the content key**, so
            hooked scenarios run safely through parallel/cached
            campaigns.  Hooks apply in declaration order; parameters are
            canonicalized (sorted by name) and must be JSON scalars.
        tags: free-form ``(name, value)`` labels for regrouping campaign
            results (e.g. ``(("placement", "3"), ("policy", "tls-one"))``).
            Tags are bookkeeping only: they do **not** affect execution
            and do **not** enter the content key.
    """

    config: ExperimentConfig
    placement: Optional[PlacementSpec] = None
    faults: Optional[FaultPlan] = None
    hooks: Tuple[HookSpec, ...] = ()
    tags: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hooks", _canonical_hooks(self.hooks))
        if self.placement is not None and self.placement.n_jobs != self.config.n_jobs:
            raise ConfigError(
                f"placement covers {self.placement.n_jobs} jobs, "
                f"config has {self.config.n_jobs}"
            )
        if self.placement is not None and self.config.placement_policy != "oblivious":
            raise ConfigError(
                "a placement override pins PS hosts explicitly; it cannot "
                f"combine with placement_policy="
                f"{self.config.placement_policy!r}"
            )
        if self.config.architecture != Architecture.PS:
            if self.placement is not None:
                raise ConfigError(
                    "placement overrides describe PS hosts; the "
                    f"{Architecture(self.config.architecture).value} "
                    "architecture places rings with the spread scheduler"
                )
            if self.faults is not None:
                raise ConfigError(
                    "fault plans target PS tasks; not supported for the "
                    f"{Architecture(self.config.architecture).value} "
                    "architecture"
                )

    # -- tags --------------------------------------------------------------

    def tag(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The value of tag ``name`` (last one wins), or ``default``."""
        value = default
        for k, v in self.tags:
            if k == name:
                value = v
        return value

    def with_tags(self, **tags: Any) -> "Scenario":
        """A copy with extra tags appended (values stringified)."""
        extra = tuple((k, str(v)) for k, v in tags.items())
        return dataclasses.replace(self, tags=self.tags + extra)

    # -- hooks -------------------------------------------------------------

    def with_hook(self, name: str, **params: Any) -> "Scenario":
        """A copy with one build hook appended (params must be scalars)."""
        entry = (name, tuple(params.items()))
        return dataclasses.replace(self, hooks=self.hooks + (entry,))

    @property
    def label(self) -> str:
        """A short human-readable identity for progress displays."""
        if self.tags:
            return " ".join(f"{k}={v}" for k, v in self.tags)
        arch = Architecture(self.config.architecture)
        if arch != Architecture.PS:
            return (f"arch={arch.value} policy={self.config.policy.value} "
                    f"seed={self.config.seed}")
        spec = self.placement
        where = spec.describe() if spec else f"#{self.config.placement_index}"
        faulted = f" faults={len(self.faults.faults)}" if self.faults else ""
        return (f"placement {where} policy={self.config.policy.value} "
                f"seed={self.config.seed}{faulted}")

    # -- identity ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (round-trips via :func:`scenario_from_dict`)."""
        return {
            "schema": SCENARIO_SCHEMA,
            "config": config_to_dict(self.config),
            "placement": list(self.placement.groups) if self.placement else None,
            "faults": self.faults.to_dict() if self.faults else None,
            "hooks": [
                [name, [list(p) for p in params]] for name, params in self.hooks
            ],
            "tags": [list(t) for t in self.tags],
        }

    def key(self) -> str:
        """Stable content hash of everything that affects execution.

        Two scenarios with the same key produce bit-identical results
        (the simulation is deterministic in the config seed), which is
        what makes the on-disk result cache sound.  Tags are excluded.

        Derived once per object: the scenario is frozen, so the key is
        memoized in the instance ``__dict__`` (``_key``, not a dataclass
        field, so eq, hash and repr ignore it).  ``dataclasses.replace``
        builds a new object and derives its own key.
        """
        key = self.__dict__.get("_key")
        if key is None:
            payload = self.to_dict()
            del payload["tags"]
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            key = hashlib.sha256(canonical.encode()).hexdigest()
            object.__setattr__(self, "_key", key)
        return key


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    """Rebuild a :class:`Scenario` from :meth:`Scenario.to_dict`."""
    schema = data.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ConfigError(
            f"unsupported scenario schema {schema!r} (this build reads "
            f"{SCENARIO_SCHEMA})"
        )
    placement = data.get("placement")
    faults = data.get("faults")
    return Scenario(
        config=config_from_dict(data["config"]),
        placement=PlacementSpec(tuple(placement)) if placement else None,
        faults=plan_from_dict(faults) if faults else None,
        hooks=tuple(
            (name, tuple((k, v) for k, v in params))
            for name, params in data.get("hooks", [])
        ),
        tags=tuple((str(k), str(v)) for k, v in data.get("tags", [])),
    )
