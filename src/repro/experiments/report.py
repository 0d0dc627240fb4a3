"""Plain-text rendering of experiment results (tables and CDF sketches).

:func:`format_cell` is the single formatting rule for every tabular
artifact — :meth:`TextTable.render` and :meth:`TextTable.to_csv` both
read the same pre-formatted rows, so a report's text table, its CSV
export, and anything built on top (figures, the CLI) cannot disagree on
headers or rounding.

:class:`Claim` is one row of a result's ``claims()``: a paper statement,
our measured value against the bound that checks it, and whether it
holds (``tensorlights reproduce`` prints every one).
"""

from __future__ import annotations

import csv
import enum
import io
import operator
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import Cdf


def format_cell(value) -> str:
    """The canonical cell formatting: floats at 4 significant digits.

    Enum-valued cells render as their ``.value`` (``Policy.FIFO`` →
    ``"fifo"``), matching how scenario tags are stringified.
    """
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


class TextTable:
    """A minimal aligned-column table renderer with a matching CSV view."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        row = [format_cell(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows)) if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The same table as CSV — identical headers and cell formatting.

        Cells are written exactly as :meth:`render` prints them (both read
        the rows :func:`format_cell` produced), so the CSV artifact can
        never drift from the rendered report.
        """
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Claim:
    """One paper claim checked against our result.

    ``id`` is unique across every result (``<group>.<what>``), ``paper``
    the paper's value or statement, ``ours`` our value as checked.
    """

    id: str
    paper: str
    ours: str
    holds: bool

    @classmethod
    def compare(cls, id: str, paper: str, value: float, op: str,
                bound: float) -> "Claim":
        """``value op bound`` (``op`` one of ``<``, ``<=``, ``>``, ``>=``)."""
        return cls(id, paper, f"{value:.4g} {op} {bound:.4g}",
                   bool(_COMPARE[op](value, bound)))

    @classmethod
    def within(cls, id: str, paper: str, value: float, low: float,
               high: float) -> "Claim":
        """``low < value < high``."""
        return cls(id, paper, f"{low:.4g} < {value:.4g} < {high:.4g}",
                   bool(low < value < high))


def render_claims(claims: Sequence[Claim]) -> str:
    """Paper against ours, one row per claim, then the count that hold."""
    table = TextTable(["Claim", "Paper", "Ours", "Holds"],
                      title="Paper claims against this reproduction")
    for claim in claims:
        table.add_row(claim.id, claim.paper, claim.ours,
                      "yes" if claim.holds else "NO")
    held = sum(claim.holds for claim in claims)
    return table.render() + f"\n{held} of {len(claims)} claims hold"


def render_cdf(samples: Iterable[float], label: str, points: int = 9) -> str:
    """A textual CDF: value at each decile (for Figures 3 and 6)."""
    cdf = Cdf(list(samples))
    qs = np.linspace(0.1, 0.9, points)
    cells = "  ".join(f"p{int(q * 100):02d}={cdf.quantile(q):.4g}" for q in qs)
    return f"{label:<24} n={cdf.n:<6} {cells}"
