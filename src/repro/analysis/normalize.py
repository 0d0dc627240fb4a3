"""Normalization helpers for paper-style reporting.

The paper reports most results *normalized over FIFO*: per-job JCT ratios
(Figure 5), utilization ratios (Table II), plus the "performance gap"
between the best and worst placement (Figure 2).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError


def normalized_jct(
    policy_jcts: Mapping[str, float], fifo_jcts: Mapping[str, float]
) -> Dict[str, float]:
    """Per-job ``JCT_policy / JCT_fifo`` (same job under both runs).

    Figure 5: "The presented JCT is normalized over that of the same job
    under FIFO."
    """
    missing = set(policy_jcts) ^ set(fifo_jcts)
    if missing:
        raise ConfigError(f"job sets differ between runs: {sorted(missing)}")
    out = {}
    for job, jct in policy_jcts.items():
        base = fifo_jcts[job]
        if base <= 0:
            raise ConfigError(f"non-positive FIFO JCT for {job}: {base}")
        out[job] = jct / base
    return out


def performance_gap(values: Sequence[float]) -> float:
    """Percentage difference between worst and best value.

    Figure 2: "the percentage difference between the best and the worst
    performance among all possible placements" — for completion times,
    ``(worst - best) / best``.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ConfigError("performance gap needs at least two values")
    best = arr.min()
    if best <= 0:
        raise ConfigError("performance gap undefined for non-positive best value")
    return float((arr.max() - best) / best)
