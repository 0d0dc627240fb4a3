"""Bootstrap confidence intervals for seed-sweep statistics.

Simulations are deterministic per seed, so uncertainty comes from seed
sweeps.  :func:`bootstrap_ratio_ci` computes a percentile-bootstrap CI
of a ratio of per-seed summaries (e.g. the normalized JCT), resampling
numerator and denominator *pairwise*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a two-sided percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        pct = int(round(self.confidence * 100))
        return f"{self.estimate:.4g} [{self.low:.4g}, {self.high:.4g}] ({pct}% CI)"


def bootstrap_ratio_ci(
    numerators: Sequence[float],
    denominators: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """CI of ``mean(num) / mean(den)`` with *paired* resampling.

    Use for normalized JCT over a seed sweep: numerator and denominator
    of the same seed are correlated, so they must be resampled together.
    """
    num = np.asarray(list(numerators), dtype=float)
    den = np.asarray(list(denominators), dtype=float)
    if num.size != den.size:
        raise ConfigError("paired bootstrap needs equal-length samples")
    if num.size < 2:
        raise ConfigError("bootstrap needs at least 2 samples")
    if (den <= 0).any():
        raise ConfigError("denominators must be positive")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, num.size, size=(n_resamples, num.size))
    ratios = num[idx].mean(axis=1) / den[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        estimate=float(num.mean() / den.mean()),
        low=float(np.quantile(ratios, alpha)),
        high=float(np.quantile(ratios, 1.0 - alpha)),
        confidence=confidence,
    )
