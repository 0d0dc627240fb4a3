"""Fingerprint store: profile each job shape once per process.

Profiling a job shape means simulating a short solo run — cheap, but not
free, and a campaign sweeping seeds/policies over a handful of shapes
would otherwise re-profile the same shape hundreds of times.  The
:class:`FingerprintStore` memoizes
:func:`~repro.placement.fingerprint.profile_job_shape` by
:func:`~repro.placement.fingerprint.shape_key` (a content hash of the
profiling configuration) in memory.  Fingerprints are a deterministic
function of the shape, so each campaign worker process profiling a shape
once for itself yields the same numbers; no disk tier is needed.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.placement.fingerprint import (
    JobFingerprint,
    profile_job_shape,
    shape_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig


class FingerprintStore:
    """Memoized access to job-shape fingerprints.

    ``get_or_profile(config)`` is the only entry point the runtime uses:
    it hashes the config's profiling shape, returns the memoized
    :class:`JobFingerprint` when one exists, and otherwise runs the
    profiling simulation and memoizes the result.  ``hits``/``misses``
    counters make memo behaviour observable in tests.
    """

    def __init__(self) -> None:
        self._memory: Dict[str, JobFingerprint] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[JobFingerprint]:
        """The memoized fingerprint for ``key``, or ``None`` (no profiling)."""
        return self._memory.get(key)

    def get_or_profile(self, config: "ExperimentConfig") -> JobFingerprint:
        """The fingerprint of ``config``'s job shape, profiling on miss."""
        key = shape_key(config)
        fp = self.get(key)
        if fp is not None:
            self.hits += 1
            return fp
        self.misses += 1
        fp = profile_job_shape(config)
        self.put(fp)
        return fp

    def put(self, fingerprint: JobFingerprint) -> None:
        """Memoize ``fingerprint`` under its own shape key."""
        self._memory[fingerprint.shape_key] = fingerprint

    def clear(self) -> None:
        """Drop every fingerprint and reset the counters (tests)."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of memoized fingerprints."""
        return len(self._memory)

    _default: Optional["FingerprintStore"] = None

    @classmethod
    def default(cls) -> "FingerprintStore":
        """The process-wide store."""
        if cls._default is None:
            cls._default = cls()
        return cls._default
