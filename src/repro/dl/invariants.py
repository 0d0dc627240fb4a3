"""DL-layer invariant checks for the runtime watchdog.

One check: completed jobs must have torn their network state down.  An
application's teardown (``Application`` finalize closes every task) frees
its allocated ports by unlistening them; a listener that survives a
fired ``done`` signal is a port-range leak — respawned jobs or later
experiments on the same host would collide with it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.dl.application import Application
    from repro.sim.watchdog import Watchdog

Violations = List[Tuple[str, Dict[str, Any]]]


def check_port_leaks(cluster: "Cluster", apps: "List[Application]") -> Violations:
    """Completed jobs must hold no listeners on any of their tasks' ports."""
    out: Violations = []
    for app in apps:
        if not app.done.fired:
            continue
        held: Dict[str, Set[int]] = {}
        for task in app.tasks:
            ep = task.endpoint
            held.setdefault(ep.host_id, set()).update(ep.ports)
        for host_id, ports in held.items():
            listeners = cluster.host(host_id).transport._listeners
            leaked = sorted(ports.intersection(listeners))
            if leaked:
                out.append((
                    f"job {app.spec.job_id} finished but still listens on "
                    f"{host_id} ports {leaked} (teardown leaked its range)",
                    {"job": app.spec.job_id, "host": host_id,
                     "ports": leaked},
                ))
    return out


def register_dl_checks(
    watchdog: "Watchdog", cluster: "Cluster", apps: "List[Application]"
) -> None:
    """Wire the DL-layer teardown invariant into a watchdog."""
    # Periodic, not final-only: teardown frees ports before ``done``
    # fires, so the invariant holds at every instant after completion.
    watchdog.register(
        "port_leak", lambda: check_port_leaks(cluster, apps)
    )
