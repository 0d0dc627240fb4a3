"""Atomic file writes for the on-disk result cache."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

_staging = itertools.count()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a reader only ever sees a whole file.

    Each writer stages into its own temp file beside ``path`` (the pid
    tells processes apart, the counter threads and re-entries within
    one), then ``os.replace``s it over ``path``.  Concurrent writers of
    one path therefore last-write-win instead of moving each other's
    staging file away.
    """
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.{next(_staging)}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
