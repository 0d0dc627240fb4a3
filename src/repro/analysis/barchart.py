"""ASCII horizontal bar charts.

Complements :mod:`repro.analysis.timeline`: where the timeline renders
*when* things happened, the bar chart renders *how much* — the shape the
paper's bar figures (2, 5a, 5b) convey.  No plotting dependency needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class Bar:
    """One labelled bar, optionally annotated (e.g. '27%')."""

    label: str
    value: float
    annotation: str = ""

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigError(f"bar {self.label!r}: negative value")


def render_barchart(
    bars: Sequence[Bar],
    width: int = 50,
    max_value: Optional[float] = None,
    fill: str = "█",
    reference: Optional[float] = None,
    title: Optional[str] = None,
) -> str:
    """Render horizontal bars on a shared scale.

    ``reference`` draws a vertical marker at that value (e.g. the FIFO
    baseline of 1.0 in normalized-JCT charts).
    """
    if not bars:
        raise ConfigError("render_barchart needs at least one bar")
    if width < 10:
        raise ConfigError(f"width must be >= 10, got {width}")
    scale_max = max_value if max_value is not None else max(b.value for b in bars)
    if reference is not None:
        scale_max = max(scale_max, reference)
    if scale_max <= 0:
        scale_max = 1.0
    label_w = max(len(b.label) for b in bars)
    ref_col = (
        min(width - 1, int(round(reference / scale_max * (width - 1))))
        if reference is not None
        else None
    )

    lines: List[str] = []
    if title:
        lines.append(title)
    for b in bars:
        n = min(width, int(round(b.value / scale_max * width)))
        row = [fill] * n + [" "] * (width - n)
        if ref_col is not None and row[ref_col] == " ":
            row[ref_col] = "|"
        suffix = f"  {b.value:.4g}"
        if b.annotation:
            suffix += f" ({b.annotation})"
        lines.append(f"{b.label:<{label_w}} {''.join(row)}{suffix}")
    return "\n".join(lines)
