"""Exception hierarchy for the repro package.

Keeping all exception types in one module lets callers catch
:class:`ReproError` to handle any library failure, while tests can assert
on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. scheduling in the past)."""


class ProcessError(SimulationError):
    """A simulated process failed; wraps the original traceback."""


class DeadlineExceeded(SimulationError):
    """A run passed its wall-clock deadline (``Simulator.run(deadline=)``)."""


class ConfigError(ReproError):
    """An experiment / component configuration is invalid."""


class NetworkError(ReproError):
    """Invalid network construction or packet routing failure."""


class QdiscError(NetworkError):
    """Invalid queueing-discipline configuration (bad handle, class id, ...)."""


class TcError(QdiscError):
    """A ``tc``-style command was malformed or referenced a missing device."""


class PlacementError(ReproError):
    """A task placement is infeasible or malformed."""


class FaultError(ReproError):
    """A fault plan is invalid, or a run did not survive its faults."""


class CampaignError(ReproError):
    """A campaign-level failure (scenario timeout, dead pool worker, ...)."""


class JournalError(CampaignError):
    """A campaign journal is missing, unreadable, or inconsistent."""


class WatchdogError(SimulationError):
    """A runtime invariant violation (watchdog ``mode="raise"``), or an
    invalid watchdog configuration.  Carries the triggering
    :class:`~repro.sim.watchdog.WatchdogViolation` as ``violation`` when
    raised by a check."""


class WorkloadError(ReproError):
    """A DL job/workload specification is invalid."""
