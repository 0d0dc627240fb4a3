"""Registered build hooks: picklable mid-build Scenario extensions.

A study that needs mid-build access (A6's rate-limiting qdiscs, A10's
adaptive controller) cannot pass a live callable through a campaign: it
would not cross process boundaries and would be invisible to the result
cache.  A :class:`BuildHook` *names* the extension instead: a
:class:`~repro.experiments.scenario.Scenario` carries only the hook's
registered name plus JSON-scalar parameters (part of its content key),
and ``materialize`` resolves the name through this registry inside
whatever process runs the scenario.  Hooked scenarios therefore run
through parallel executors and the on-disk cache like any other.

Four hooks ship built in:

* ``tl_controller`` — the one place a TensorLights controller is built:
  static or adaptive variant, optional non-work-conserving HTB.  With no
  parameters it is the controller ``materialize`` gives TLs-One/TLs-RR
  runs; with parameters it is the declarative form of A10 and the
  ``htb_borrowing``/``adaptive`` component knockouts.
* ``rate_control`` — A6's centralized sender rate allocation: static
  non-work-conserving HTB shares at each contended PS host.
* ``slow_start`` — toggle the transport's slow-start ramp on every host.
* ``noisy_neighbors`` — A12's interference: background CPU load on a
  third of the hosts plus bulk traffic out of the first job's PS host.

Custom hooks register via :func:`register_build_hook` at import time of
the module that defines them (the registry is process-local, so define
hooks in importable modules, not notebooks, when using the parallel
executor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runtime import Runtime
    from repro.tensorlights import TensorLights

#: What a hook's ``controller`` returns; ``materialize`` calls it for the run's controller.
ControllerFactory = Callable[
    ["Cluster", "ExperimentConfig"], Optional["TensorLights"]
]


@dataclass(frozen=True)
class BuildHook:
    """One named mid-build extension point.

    Attributes:
        name: the registry key scenarios refer to.
        description: one line for docs and error messages.
        controller: optional; given the hook's parameter dict, returns a
            :data:`ControllerFactory` in place of the policy-derived one.
            At most one hook on a scenario may provide a controller.
        post_build: optional; called with the materialized
            :class:`~repro.experiments.runtime.Runtime` and the parameter
            dict after the cluster and apps are wired, before the run
            (install qdiscs, flip transport flags, attach collectors).
    """

    name: str
    description: str
    controller: Optional[
        Callable[[Dict[str, Any]], ControllerFactory]
    ] = None
    post_build: Optional[
        Callable[["Runtime", Dict[str, Any]], None]
    ] = None


_REGISTRY: Dict[str, BuildHook] = {}


def register_build_hook(hook: BuildHook) -> BuildHook:
    """Add a hook to the process-local registry (names are unique)."""
    if hook.name in _REGISTRY:
        raise ConfigError(f"build hook {hook.name!r} already registered")
    _REGISTRY[hook.name] = hook
    return hook


def get_build_hook(name: str) -> BuildHook:
    """Look up a registered hook by name."""
    hook = _REGISTRY.get(name)
    if hook is None:
        raise ConfigError(
            f"unknown build hook {name!r} (registered: {sorted(_REGISTRY)})"
        )
    return hook


# -- builtin: tl_controller -------------------------------------------------


def _tl_controller(params: Dict[str, Any]) -> ControllerFactory:
    """Build the controller factory for the ``tl_controller`` hook."""
    variant = params.get("variant", "static")
    if variant not in ("static", "adaptive"):
        raise ConfigError(
            f"tl_controller variant must be 'static' or 'adaptive', "
            f"got {variant!r}"
        )
    mode_value = params.get("mode")
    check_interval = float(params.get("check_interval", 0.5))
    work_conserving = bool(params.get("work_conserving", True))

    def factory(
        cluster: "Cluster", config: "ExperimentConfig"
    ) -> Optional["TensorLights"]:
        from repro.experiments.config import Policy
        from repro.tensorlights import (
            AdaptiveTensorLights,
            TensorLights,
            TLMode,
        )

        if mode_value is not None:
            mode = TLMode(mode_value)
        elif config.policy == Policy.TLS_RR:
            mode = TLMode.RR
        else:
            mode = TLMode.ONE
        if variant == "adaptive":
            return AdaptiveTensorLights(
                cluster,
                mode=mode,
                interval=config.tls_interval,
                max_bands=config.max_bands,
                check_interval=check_interval,
                work_conserving=work_conserving,
            )
        return TensorLights(
            cluster,
            mode=mode,
            interval=config.tls_interval,
            max_bands=config.max_bands,
            work_conserving=work_conserving,
        )

    return factory


register_build_hook(BuildHook(
    name="tl_controller",
    description=(
        "explicit TensorLights controller: variant=static|adaptive, "
        "mode=tls-one|tls-rr, check_interval, work_conserving"
    ),
    controller=_tl_controller,
))


# -- builtin: rate_control --------------------------------------------------


def _rate_control_post_build(rt: "Runtime", params: Dict[str, Any]) -> None:
    """A6's static per-job rate shaping at each contended PS host.

    Every colocated PS gets ``(link / n_colocated) * accuracy``, enforced
    with non-work-conserving HTB classes (``ceil == rate``).  A perfect
    allocator (accuracy 1.0) serializes nothing but keeps the link busy;
    an under-estimating one leaves bandwidth idle — the paper's §VII
    argument for work-conserving priorities.
    """
    from repro.dl import DLApplication
    from repro.net.qdisc import HTBQdisc, PortFilter

    accuracy = float(params.get("accuracy", 1.0))
    if not 0.0 < accuracy <= 1.0:
        raise ConfigError(
            f"rate_control accuracy must be in (0, 1], got {accuracy}"
        )
    cfg = rt.scenario.config
    by_host: Dict[str, List[Any]] = {}
    for app in rt.apps:
        if not isinstance(app, DLApplication):
            continue  # ring jobs have no single PS port to shape
        by_host.setdefault(app.ps_host_id, []).append(app)
    for host_id, host_apps in by_host.items():
        if len(host_apps) < 2:
            continue
        share = cfg.link_rate / len(host_apps) * accuracy
        filt = PortFilter()
        htb = HTBQdisc(filter=filt, default_classid=999)
        htb.add_class(1, rate=cfg.link_rate, ceil=cfg.link_rate)
        htb.add_class(999, rate=share, ceil=share, parent=1)  # default
        for i, app in enumerate(host_apps):
            classid = 10 + i
            htb.add_class(classid, rate=share, ceil=share, parent=1)
            filt.add_match(app.ps_port, classid)
        rt.cluster.host(host_id).nic.set_qdisc(htb)


register_build_hook(BuildHook(
    name="rate_control",
    description=(
        "static per-PS rate allocation at contended hosts (A6); "
        "accuracy scales the fair share"
    ),
    post_build=_rate_control_post_build,
))


# -- builtin: slow_start ----------------------------------------------------


def _slow_start_post_build(rt: "Runtime", params: Dict[str, Any]) -> None:
    """Toggle the transport slow-start ramp on every host's transport."""
    enabled = bool(params.get("enabled", True))
    for hid in rt.cluster.host_ids:
        rt.cluster.host(hid).transport.slow_start = enabled


register_build_hook(BuildHook(
    name="slow_start",
    description="set transport slow-start (enabled=bool) on every host",
    post_build=_slow_start_post_build,
))


# -- builtin: noisy_neighbors -----------------------------------------------


def _noisy_neighbors_post_build(rt: "Runtime", params: Dict[str, Any]) -> None:
    """A12's noisy neighbors: interference TensorLights cannot schedule.

    Two cores of background load on every third host (from the second),
    plus unclassified bulk traffic at a tenth of the link rate from the
    first job's PS host to the last host.  The antagonists stop once
    every job is terminal, so the event queue drains.
    """
    from repro.cluster.antagonist import CpuAntagonist, NetworkAntagonist
    from repro.sim.primitives import AllOf

    cluster = rt.cluster
    antagonists: List[Any] = [
        CpuAntagonist(cluster.host(hid), intensity=2.0)
        for hid in cluster.host_ids[1::3]
    ]
    antagonists.append(NetworkAntagonist(
        cluster, rt.ps_hosts[0], cluster.host_ids[-1],
        rate=rt.scenario.config.link_rate / 10,
    ))
    for antagonist in antagonists:
        antagonist.start()

    def stop_all():
        yield AllOf([app.terminal for app in rt.apps])
        for antagonist in antagonists:
            antagonist.stop()

    rt.sim.spawn(stop_all(), name="stop-antagonists")


register_build_hook(BuildHook(
    name="noisy_neighbors",
    description=(
        "two cores of background load on every third host and bulk "
        "traffic at a tenth of the link rate from the first PS host (A12)"
    ),
    post_build=_noisy_neighbors_post_build,
))
