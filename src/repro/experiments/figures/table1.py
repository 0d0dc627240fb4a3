"""Table I: index of the PS placements studied."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.placement import TABLE1_PLACEMENTS, PlacementSpec
from repro.experiments.report import Claim, TextTable


@dataclass
class Table1Result:
    rows: List[Tuple[int, str, int, int]]  # index, groups, n_ps_hosts, max coloc

    def claims(self) -> List[Claim]:
        """Table I lists eight placements."""
        return [Claim("table1.placements", "8", str(len(self.rows)),
                      len(self.rows) == len(TABLE1_PLACEMENTS) == 8)]

    def render(self) -> str:
        table = TextTable(
            ["Index", "PS Placement", "PS hosts", "Max colocation"],
            title="Table I: index of PS placements (21 concurrent jobs)",
        )
        for row in self.rows:
            table.add_row(*row)
        return table.render()


def generate() -> Table1Result:
    """Enumerate the Table I placements."""
    rows = []
    for index in sorted(TABLE1_PLACEMENTS):
        spec = PlacementSpec(TABLE1_PLACEMENTS[index])
        rows.append(
            (f"#{index}", spec.describe(), spec.n_ps_hosts, spec.max_colocation)
        )
    return Table1Result(rows=rows)
