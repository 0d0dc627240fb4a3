"""TensorLights-layer invariant checks for the runtime watchdog.

The controller's desired state (which jobs contend on which host) and
the installed tc state (HTB + band filters) must agree at every instant:

* no *stale* membership — a job whose ``done`` fired or that failed must
  not still be attached to a host state (the detach watcher or the
  reconciler should have removed it);
* HTB presence matches need — ``>= 2`` attached jobs ⇔ tc installed
  (crashed hosts excepted: their tc state is legitimately gone);
* every attached job's filters exist with one consistent band per job.

:meth:`TensorLights.reconcile` is the *repair* path for exactly this
drift; when the run has a watchdog its silent repairs are additionally
reported (check ``tl_reconcile``), so a run that needed anti-entropy
says so instead of quietly fixing itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.watchdog import Watchdog
    from repro.tensorlights.controller import TensorLights

Violations = List[Tuple[str, Dict[str, Any]]]


def check_band_drift(controller: "TensorLights") -> Violations:
    """Desired membership and installed tc state must agree everywhere."""
    out: Violations = []
    for host_id, state in controller._hosts.items():
        stale = [
            a.spec.job_id for a in state.apps
            if a.done.fired or getattr(a, "failed", False)
        ]
        if stale:
            out.append((
                f"stale jobs attached on {host_id}: {stale} "
                "(departed/failed but never detached)",
                {"host": host_id, "jobs": stale},
            ))
            continue  # membership is wrong; tc comparisons would be noise
        if host_id in controller._down:
            continue  # a crashed host has no tc state to compare
        needs_tc = len(state.apps) >= 2
        if needs_tc != state.tc.installed:
            out.append((
                f"tc drift on {host_id}: {len(state.apps)} contending "
                f"jobs but HTB installed={state.tc.installed}",
                {"host": host_id, "jobs": len(state.apps),
                 "installed": state.tc.installed},
            ))
            continue
        if not state.tc.installed:
            continue
        for job_id, ranges in state.ranges.items():
            bands = {state.tc.band_of_port(lo) for lo, _hi in ranges}
            if len(bands) != 1 or None in bands:
                out.append((
                    f"band drift on {host_id}: job {job_id} maps to "
                    f"bands {sorted(map(str, bands))} (want exactly one)",
                    {"host": host_id, "job": job_id,
                     "bands": sorted(map(str, bands))},
                ))
    return out


def register_tensorlights_checks(
    watchdog: "Watchdog", controller: "TensorLights"
) -> None:
    """Wire the controller drift invariant into a watchdog, and hand the
    controller the watchdog its reconcile repairs are reported to."""
    watchdog.register("tl_drift", lambda: check_band_drift(controller))
    controller.watchdog = watchdog
