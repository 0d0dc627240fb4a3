"""Compare two sets of benchmark reports: one row per workload and metric.

Usage (from the repository root)::

    python3 bench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a report written by ``bench/run.py --out``, for one workload
or for ``--workload all``.  Only end-to-end metrics are compared.  A
side's value is the median of its reports' medians, with quartiles taken
across those reports, or the report's own quartiles when the side has a
single report.  The verdict uses the metric's direction and bound from
``BENCHMARK.json``:

* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound;
* ``regressed``: B is worse than A by more than the bound;
* ``improved``: B is better than A by more than the bound;
* ``within bound``: otherwise.

Exits 1 when any row regressed, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Stats = Tuple[float, float, float]  # median, q1, q3


def load(paths: Sequence[str]) -> Dict[Tuple[str, str], List[dict]]:
    """``(workload, metric) -> [metric entry per report]``."""
    out: Dict[Tuple[str, str], List[dict]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        reports = data["workloads"].values() if "workloads" in data else [data]
        for report in reports:
            if "metrics" not in report or "workload" not in report:
                print(f"compare: {path} is not a bench/run.py report",
                      file=sys.stderr)
                raise SystemExit(2)
            if report.get("trace"):
                continue
            for name, entry in report["metrics"].items():
                out.setdefault((report["workload"], name), []).append(entry)
    return out


def side(entries: List[dict]) -> Stats:
    if len(entries) == 1:
        e = entries[0]
        return e["median"], e["q1"], e["q3"]
    medians = [e["median"] for e in entries]
    q1, _, q3 = statistics.quantiles(medians, n=4)
    return statistics.median(medians), q1, q3


def verdict(a: Stats, b: Stats, better: str, bound: float) -> Tuple[float, str]:
    """``(relative change of B against A, verdict)``."""
    if a[0] <= 0 or b[0] <= 0:
        return float("nan"), "unresolved"
    change = (b[0] - a[0]) / a[0]
    if (a[2] - a[1]) / a[0] > bound or (b[2] - b[1]) / b[0] > bound:
        return change, "unresolved"
    worse = change if better == "lower" else -change
    if worse > bound:
        return change, "regressed"
    if worse < -bound:
        return change, "improved"
    return change, "within bound"


def main(argv: Sequence[str]) -> int:
    split = list(argv).index("--") if "--" in argv else 0
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("usage: compare.py A.json [A2.json ...] -- B.json [B2.json ...]",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    a, b = load(a_paths), load(b_paths)
    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':15s} {'metric':13s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    print(header)
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            sa, sb = side(a[key]), side(b[key])
            change, result = verdict(sa, sb, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:15s} {metric['name']:13s} {fmt.format(*sa):>30s} "
                  f"{fmt.format(*sb):>30s} {change:>+8.1%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
