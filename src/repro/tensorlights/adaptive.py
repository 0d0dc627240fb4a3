"""Adaptive TensorLights: enable priorities only under measured contention.

An extension beyond the paper (which configures ``tc`` statically on hosts
with colocated PSes).  The adaptive controller watches each candidate
host's NIC utilization and installs the priority configuration only while
the NIC is actually congested; when contention subsides the host reverts
to FIFO.  Because TensorLights is work-conserving the static controller is
already harmless on idle hosts — the adaptive variant exists to minimize
``tc`` state on large clusters and as a deployment-convenience study.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim.process import Timeout
from repro.tensorlights.controller import TensorLights, TLMode, _HostState

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.tensorlights.policies import PriorityPolicy


class AdaptiveTensorLights(TensorLights):
    """TensorLights that engages per host only when its NIC is congested.

    Args:
        check_interval: seconds between utilization checks.
        enable_threshold: NIC busy fraction above which priorities engage.
        disable_threshold: busy fraction below which the host reverts to
            FIFO (hysteresis: must be < enable_threshold).
    """

    def __init__(
        self,
        cluster: "Cluster",
        mode: TLMode = TLMode.ONE,
        interval: float = 20.0,
        max_bands: int = 6,
        policy: Optional["PriorityPolicy"] = None,
        check_interval: float = 1.0,
        enable_threshold: float = 0.8,
        disable_threshold: float = 0.4,
        work_conserving: bool = True,
    ) -> None:
        super().__init__(cluster, mode=mode, interval=interval,
                         max_bands=max_bands, policy=policy,
                         work_conserving=work_conserving)
        if check_interval <= 0:
            raise ConfigError("check_interval must be positive")
        if not 0.0 < disable_threshold < enable_threshold <= 1.0:
            raise ConfigError(
                "need 0 < disable_threshold < enable_threshold <= 1, got "
                f"{disable_threshold} / {enable_threshold}"
            )
        self.check_interval = check_interval
        self.enable_threshold = enable_threshold
        self.disable_threshold = disable_threshold
        self._engaged: Dict[str, bool] = {}
        self._prev_busy: Dict[str, float] = {}
        self._monitor_running = False
        self.engage_events = 0
        self.disengage_events = 0

    # -- gate installation on measured contention ---------------------------

    def _reconfigure(self, state: _HostState) -> None:
        host_id = state.tc.nic.host_id
        if len(state.apps) >= 2 and not self._engaged.get(host_id, False):
            # Candidate but not yet congested: stay at FIFO.
            if state.tc.installed:
                state.tc.remove()
                self.reconfigurations += 1
            self._ensure_monitor()
            return
        super()._reconfigure(state)

    # -- contention monitor --------------------------------------------------

    def _ensure_monitor(self) -> None:
        if self._monitor_running:
            return
        self._monitor_running = True
        self.cluster.sim.spawn(self._monitor(), name="tls-adaptive-monitor")

    def _busy_fraction(self, host_id: str) -> float:
        nic = self.cluster.host(host_id).nic
        busy = nic.utilization_snapshot()["busy_time"]
        prev = self._prev_busy.get(host_id, 0.0)
        self._prev_busy[host_id] = busy
        return (busy - prev) / self.check_interval

    def _monitor(self):
        while True:
            yield Timeout(self.check_interval)
            candidates = {
                host_id: state
                for host_id, state in self._hosts.items()
                if len(state.apps) >= 2
            }
            if not any(s.apps for s in self._hosts.values()):
                break
            for host_id, state in candidates.items():
                busy = self._busy_fraction(host_id)
                engaged = self._engaged.get(host_id, False)
                if not engaged and busy >= self.enable_threshold:
                    self._engaged[host_id] = True
                    self.engage_events += 1
                    super()._reconfigure(state)
                elif engaged and busy <= self.disable_threshold:
                    self._engaged[host_id] = False
                    self.disengage_events += 1
                    self._reconfigure(state)  # reverts to FIFO
        self._monitor_running = False
