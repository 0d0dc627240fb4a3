"""ASCII timeline (Gantt-style) rendering of job/burst schedules.

Turns spans of simulated time into a fixed-width text chart — used to
print Figure-4-style schedules in terminals and logs without a plotting
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class Span:
    """One labelled interval on the timeline."""

    label: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigError(f"span {self.label!r}: end < start")


def render_timeline(
    spans: Sequence[Span],
    width: int = 72,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    fill: str = "#",
) -> str:
    """Render spans as aligned bars over a shared time axis.

    Each span gets one row; the axis is annotated with the window bounds.
    Zero-length spans render as a single mark.
    """
    if not spans:
        raise ConfigError("render_timeline needs at least one span")
    if width < 10:
        raise ConfigError(f"width must be >= 10, got {width}")
    lo = min(s.start for s in spans) if t0 is None else t0
    hi = max(s.end for s in spans) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1e-9
    scale = width / (hi - lo)
    label_w = max(len(s.label) for s in spans)

    def col(t: float) -> int:
        return max(0, min(width - 1, int((t - lo) * scale)))

    lines = []
    for s in spans:
        a, b = col(s.start), col(s.end)
        bar = [" "] * width
        for i in range(a, max(a + 1, b)):
            bar[i] = fill
        lines.append(f"{s.label:<{label_w}} |{''.join(bar)}|")
    axis = f"{'':<{label_w}} |{'-' * width}|"
    legend = (
        f"{'':<{label_w}}  {lo:.4g}"
        + " " * max(1, width - len(f"{lo:.4g}") - len(f"{hi:.4g}"))
        + f"{hi:.4g}"
    )
    return "\n".join(lines + [axis, legend])
