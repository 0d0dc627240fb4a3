"""Small statistics helpers used by the figure generators."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError


class Cdf:
    """An empirical CDF over a sample set (the paper's Figures 3 and 6)."""

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ConfigError("cannot build a CDF from zero samples")
        self._sorted = np.sort(arr)

    @property
    def n(self) -> int:
        return int(self._sorted.size)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self._sorted, x, side="right") / self.n)

    def quantile(self, q: float) -> float:
        """Inverse CDF (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self._sorted, q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    def points(self, n_points: int = 50) -> list[tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting/printing."""
        qs = np.linspace(0.0, 1.0, n_points)
        return [(float(np.quantile(self._sorted, q)), float(q)) for q in qs]
