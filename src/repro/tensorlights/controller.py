"""The TensorLights controller: TLs-One and TLs-RR.

Per host with *contending* jobs (two or more classified senders — PS
tasks, ring all-reduce members, or a mix), the controller installs the
HTB priority configuration via :class:`~repro.tensorlights.tc.Tc` and
maps each job's source ports to a band: a PS job by its PS port(s), an
all-reduce job by its member's port range on every member host (see
:mod:`repro.collectives`).  Hosts without contention are left untouched —
exactly the paper's deployment ("we only need to configure tc on the
hosts with contending PSes and leave other hosts unchanged").

* **TLs-One**: the ranking is computed once per membership change (job
  arrival or departure) and otherwise left alone.
* **TLs-RR**: additionally, every interval ``T`` the assignment is
  rotated by one position — over ``n`` intervals every job has held every
  rank once, which equalizes progress (fairness) while preserving the
  within-interval serialization that kills stragglers.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim.process import Timeout
from repro.tensorlights.bands import DEFAULT_MAX_BANDS, band_assignment
from repro.tensorlights.policies import ArrivalOrderPolicy, PriorityPolicy
from repro.tensorlights.tc import Tc

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.dl.application import Application
    from repro.sim.watchdog import Watchdog


class TLMode(str, enum.Enum):
    """Which TensorLights variant to run."""

    ONE = "tls-one"
    RR = "tls-rr"


class _HostState:
    """Per-controlled-host state (PS hosts and all-reduce member hosts)."""

    __slots__ = ("host_id", "tc", "apps", "ranges", "rotation")

    def __init__(self, host_id: str, tc: Tc) -> None:
        self.host_id = host_id
        self.tc = tc
        self.apps: List["Application"] = []
        #: job_id -> this job's source-port ranges on this host; degenerate
        #: ``(port, port)`` entries for PS jobs (>1 for sharded jobs), one
        #: true range per host for all-reduce jobs
        self.ranges: Dict[str, List[Tuple[int, int]]] = {}
        self.rotation = 0


class TensorLights:
    """The end-host traffic scheduler.

    Args:
        cluster: the cluster whose NICs will be configured.
        mode: :data:`TLMode.ONE` or :data:`TLMode.RR`.
        interval: TLs-RR rotation period ``T`` in seconds (paper: 20 s).
        max_bands: priority bands available (paper: up to 6).
        policy: how contending jobs are ranked (default: arrival order).
        work_conserving: pass ``False`` to hard-cap every band at its
            equal share (disables HTB borrowing; the ``htb_borrowing``
            component knockout).  The paper's configuration is ``True``.
    """

    def __init__(
        self,
        cluster: "Cluster",
        mode: TLMode = TLMode.ONE,
        interval: float = 20.0,
        max_bands: int = DEFAULT_MAX_BANDS,
        policy: Optional[PriorityPolicy] = None,
        work_conserving: bool = True,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"rotation interval must be positive, got {interval}")
        if max_bands < 1:
            raise ConfigError(f"max_bands must be >= 1, got {max_bands}")
        self.cluster = cluster
        self.mode = mode
        self.interval = interval
        self.max_bands = max_bands
        self.work_conserving = work_conserving
        self.policy: PriorityPolicy = policy if policy is not None else ArrivalOrderPolicy()
        self._hosts: Dict[str, _HostState] = {}
        self._down: Set[str] = set()
        self._rotor_running = False
        self._reconciler_running = False
        self.reconfigurations = 0  # tc touch count (deployment cost metric)
        #: host_id -> port/range band (re)assignments over the whole run
        self.band_reassignments: Dict[str, int] = {}
        #: hosts touched by :meth:`reconcile`, summed over every pass
        self.reconcile_actions = 0
        #: the run's watchdog, handed over by
        #: :func:`~repro.tensorlights.invariants.register_tensorlights_checks`;
        #: :meth:`reconcile` reports its repairs to it
        self.watchdog: Optional["Watchdog"] = None

    # -- job lifecycle ------------------------------------------------------

    def attach(self, app: "Application") -> None:
        """Register a job (call on arrival, before or after launch).

        Works for both architectures through the classification protocol:
        a PS job is registered on every host carrying one of its PS
        endpoints (sharded jobs span several), an all-reduce job on every
        ring member host.  All of a job's ports/ranges on a host share
        the job's band.
        """
        for host_id, ranges in app.classification_ranges().items():
            state = self._hosts.get(host_id)
            if state is None:
                state = _HostState(host_id, Tc(self.cluster.host(host_id).nic))
                self._hosts[host_id] = state
            if app in state.apps:
                raise ConfigError(f"{app.spec.job_id} already attached")
            state.apps.append(app)
            state.ranges[app.spec.job_id] = list(ranges)
            self._reconfigure(state)
        if self.mode == TLMode.RR:
            self._ensure_rotor()

        # Auto-detach on completion (the paper's "upon departure").
        def watch():
            yield app.done
            self.detach(app)

        self.cluster.sim.spawn(watch(), name=f"tl-watch/{app.spec.job_id}")

    def detach(self, app: "Application") -> None:
        """Deregister a departed job and re-rank the remainder."""
        for host_id in app.classification_ranges():
            state = self._hosts.get(host_id)
            if state is None or app not in state.apps:
                continue
            state.apps.remove(app)
            ranges = state.ranges.pop(app.spec.job_id, [])
            if state.tc.installed:
                self._del_ranges(state, ranges)
            self._reconfigure(state)

    # -- assignment -------------------------------------------------------------

    @staticmethod
    def _del_ranges(state: _HostState, ranges: List[Tuple[int, int]]) -> None:
        """Remove a job's filters (single ports and true ranges alike)."""
        for lo, hi in ranges:
            if lo == hi:
                state.tc.del_port(lo)
            else:
                state.tc.del_range(lo, hi)

    def _reconfigure(self, state: _HostState) -> None:
        """(Re)apply the banding for one host's current jobs."""
        if state.host_id in self._down:
            return  # nothing to configure until the host is back
        n = len(state.apps)
        if n < 2:
            # No contention: the paper leaves such hosts at the default
            # FIFO.  If tc was installed earlier (job count dropped to 1),
            # a single-class HTB behaves like FIFO, so removal is safe too;
            # we remove to match the paper's "leave other hosts unchanged".
            if state.tc.installed:
                state.tc.remove()
                self.reconfigurations += 1
            return
        if not state.tc.installed:
            state.tc.install_tensorlights_htb(
                self.max_bands, work_conserving=self.work_conserving
            )
            self.reconfigurations += 1
        ranked = self.policy.rank(state.apps, self.cluster.sim.rng)
        bands = band_assignment(n, self.max_bands)
        counts = self.band_reassignments
        for rank, app in enumerate(ranked):
            rotated_rank = (rank + state.rotation) % n
            for lo, hi in state.ranges[app.spec.job_id]:
                if lo == hi:
                    state.tc.set_port_band(lo, bands[rotated_rank])
                else:
                    state.tc.set_range_band(lo, hi, bands[rotated_rank])
                self.reconfigurations += 1
                counts[state.host_id] = counts.get(state.host_id, 0) + 1

    # -- fault awareness & reconciliation --------------------------------------

    def host_down(self, host_id: str) -> None:
        """A host crashed: its tc state is wiped (a reboot loses qdiscs)."""
        self._down.add(host_id)
        state = self._hosts.get(host_id)
        if state is not None and state.tc.installed:
            state.tc.remove()
            self.reconfigurations += 1

    def host_up(self, host_id: str) -> None:
        """A crashed host came back (fresh FIFO qdisc, no bands).

        The desired banding is re-installed immediately; the periodic
        reconciler would also catch it on its next pass.
        """
        self._down.discard(host_id)
        state = self._hosts.get(host_id)
        if state is not None:
            self._reconfigure(state)

    def reconcile(self) -> int:
        """One anti-entropy pass: drop dead jobs, fix tc drift.

        Removes bands for jobs that departed or failed without firing
        their ``done`` signal (a crashed PS never does), and re-installs
        HTB on recovered hosts whose desired state says it should exist.
        Returns the number of hosts whose configuration was touched.

        When the run has a watchdog, every repair is also reported as a
        ``tl_reconcile`` violation — drift the reconciler had to fix is
        drift some earlier path failed to prevent.
        """
        touched = 0
        watchdog = self.watchdog
        for state in self._hosts.values():
            stale = [a for a in state.apps
                     if a.done.fired or getattr(a, "failed", False)]
            for app in stale:
                state.apps.remove(app)
                ranges = state.ranges.pop(app.spec.job_id, [])
                if state.tc.installed:
                    self._del_ranges(state, ranges)
            if stale:
                self._reconfigure(state)
                touched += 1
                if watchdog is not None:
                    watchdog.report(
                        "tl_reconcile",
                        f"reconcile dropped stale jobs on {state.host_id}: "
                        f"{[a.spec.job_id for a in stale]}",
                        host=state.host_id,
                        jobs=[a.spec.job_id for a in stale],
                    )
                continue
            if state.host_id in self._down:
                continue
            needs_tc = len(state.apps) >= 2
            if needs_tc != state.tc.installed:
                self._reconfigure(state)
                touched += 1
                if watchdog is not None:
                    watchdog.report(
                        "tl_reconcile",
                        f"reconcile fixed tc drift on {state.host_id} "
                        f"(want installed={needs_tc})",
                        host=state.host_id, want_installed=needs_tc,
                    )
        self.reconcile_actions += touched
        return touched

    def start_reconciler(self, interval: float) -> None:
        """Run :meth:`reconcile` every ``interval`` seconds (idempotent)."""
        if interval <= 0:
            raise ConfigError(
                f"reconcile interval must be positive, got {interval}"
            )
        if self._reconciler_running:
            return
        self._reconciler_running = True
        self.cluster.sim.spawn(self._reconciler(interval), name="tl-reconciler")

    def _reconciler(self, interval: float):
        while True:
            yield Timeout(interval)
            if not any(s.apps for s in self._hosts.values()):
                break  # every job gone; let the simulation drain
            self.reconcile()
        self._reconciler_running = False

    # -- TLs-RR rotation -------------------------------------------------------

    def _ensure_rotor(self) -> None:
        if self._rotor_running:
            return
        self._rotor_running = True
        self.cluster.sim.spawn(self._rotor(), name="tls-rr-rotor")

    def _rotor(self):
        while True:
            yield Timeout(self.interval)
            active = [s for s in self._hosts.values() if len(s.apps) >= 2]
            if not any(s.apps for s in self._hosts.values()):
                break  # all jobs finished; let the simulation drain
            for state in active:
                state.rotation += 1
                self._reconfigure(state)
        self._rotor_running = False

    # -- introspection ---------------------------------------------------------

    def band_of(self, app: "Application", host_id: Optional[str] = None) -> Optional[int]:
        """The band currently assigned to a job on one host, if any.

        ``host_id`` defaults to the job's anchor host — the (first) PS
        host for PS jobs, the leader member's host for all-reduce jobs.
        All of a job's ranges on a host share one band.
        """
        ranges = app.classification_ranges()
        if host_id is None:
            host_id = app.ps_host_id
        state = self._hosts.get(host_id)
        if state is None or not state.tc.installed or host_id not in ranges:
            return None
        return state.tc.band_of_port(ranges[host_id][0][0])

    def render_commands(self) -> List[str]:
        """All equivalent real-``tc`` command lines, per configured host."""
        out: List[str] = []
        for host_id in sorted(self._hosts):
            state = self._hosts[host_id]
            if state.tc.installed:
                out.extend(state.tc.render_commands())
        return out
