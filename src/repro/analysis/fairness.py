"""Fairness of concurrent jobs: Jain's index.

The paper motivates TLs-RR with grid-search fairness: "when all search
instances have made similar progress, a DL engineer may compare the
accuracy performance of concurrent grid-search instances" (§IV-C).  Jain's
index over per-job JCTs quantifies that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = maximally unequal.

    ``J = (sum x)^2 / (n * sum x^2)`` over non-negative values.  Degenerate
    inputs have a defined value instead of raising: an empty population is
    vacuously fair (1.0), as is all-zero progress — nobody is ahead.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 1.0  # vacuously fair: nobody to be unfair to
    if (arr < 0).any():
        raise ConfigError("jain_index requires non-negative values")
    denom = arr.size * float(np.square(arr).sum())
    if denom == 0:
        return 1.0  # all zeros: equal
    return float(arr.sum() ** 2 / denom)
