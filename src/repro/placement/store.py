"""Fingerprint store: profile each job shape once, reuse everywhere.

Profiling a job shape means simulating a short solo run — cheap, but not
free, and a campaign sweeping seeds/policies over a handful of shapes
would otherwise re-profile the same shape hundreds of times.  The
:class:`FingerprintStore` memoizes
:func:`~repro.placement.fingerprint.profile_job_shape` by
:func:`~repro.placement.fingerprint.shape_key` (a content hash of the
profiling configuration), in memory and optionally on disk.

Set the ``REPRO_FINGERPRINT_DIR`` environment variable to persist
fingerprints as one JSON file per shape key; campaign worker processes
then share profiles across process boundaries.  Without it the default
store is per-process memory only — still correct (fingerprints are a
deterministic function of the shape), just re-profiled once per process.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.fileio import atomic_write_bytes
from repro.placement.fingerprint import (
    JobFingerprint,
    fingerprint_from_dict,
    profile_job_shape,
    shape_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig

#: Environment variable naming an on-disk fingerprint cache directory.
FINGERPRINT_DIR_ENV = "REPRO_FINGERPRINT_DIR"


class FingerprintStore:
    """Memoized access to job-shape fingerprints.

    ``get_or_profile(config)`` is the only entry point the runtime uses:
    it hashes the config's profiling shape, returns a cached
    :class:`JobFingerprint` when one exists (memory first, then the
    optional directory), and otherwise runs the profiling simulation and
    caches the result.  ``hits``/``misses`` counters make cache behaviour
    observable in tests and reports.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        """Create a store; ``directory`` enables the on-disk tier."""
        self._memory: Dict[str, JobFingerprint] = {}
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Optional[JobFingerprint]:
        """The cached fingerprint for ``key``, or ``None`` (no profiling)."""
        fp = self._memory.get(key)
        if fp is not None:
            return fp
        if self._directory is not None:
            path = self._path(key)
            if path.exists():
                fp = self._load(path, key)
                self._memory[key] = fp
                return fp
        return None

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
        """Cache ``fingerprint`` under its own shape key (both tiers)."""
        self._memory[fingerprint.shape_key] = fingerprint
        if self._directory is not None:
            atomic_write_bytes(
                self._path(fingerprint.shape_key),
                json.dumps(fingerprint.to_dict(), sort_keys=True).encode(),
            )

    def clear(self) -> None:
        """Drop the in-memory tier and reset the counters (tests)."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of fingerprints in the in-memory tier."""
        return len(self._memory)

    # -- disk tier ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self._directory / f"{key}.json"

    def _load(self, path: Path, key: str) -> JobFingerprint:
        try:
            data = json.loads(path.read_text())
            fp = fingerprint_from_dict(data)
        except (ValueError, KeyError, ConfigError) as exc:
            raise ConfigError(
                f"corrupt fingerprint file {path}: {exc}"
            ) from exc
        if fp.shape_key != key:
            raise ConfigError(
                f"fingerprint file {path} holds shape_key {fp.shape_key}, "
                f"expected {key}"
            )
        return fp

    # -- process default ---------------------------------------------------

    _default: Optional["FingerprintStore"] = None

    @classmethod
    def default(cls) -> "FingerprintStore":
        """The process-wide store (honours ``REPRO_FINGERPRINT_DIR``)."""
        if cls._default is None:
            env = os.environ.get(FINGERPRINT_DIR_ENV)
            cls._default = cls(Path(env) if env else None)
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        """Forget the process-wide store (tests, env-var changes)."""
        cls._default = None
