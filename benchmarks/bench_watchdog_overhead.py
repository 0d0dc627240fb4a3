"""Overhead guard for the runtime invariant watchdog (``Runtime.watchdog``).

The watchdog's contract mirrors the metrics registry's: *zero-cost when
off* (a run without one builds no watchdog, and nothing on the data path
asks for one) and cheap in ``warn`` mode, where periodic heartbeat sweeps run the registered
invariant checks over counters the simulation maintains anyway.  The
acceptance bar is <5% events/sec overhead in warn mode relative to the
same run with the watchdog off.  This benchmark enforces both, and also
keeps watchdog-off throughput honest against the checked-in
``BENCH_simulator.json`` baseline.

Runnable directly — CI does::

    python benchmarks/bench_watchdog_overhead.py --quick \
        --baseline BENCH_simulator.json --max-regression 0.05

which re-measures the same end-to-end scenarios as
``bench_simulator_speed`` in interleaved (watchdog off, warn) pairs,
fails if any scenario's median off run is more than ``--max-regression``
below the checked-in events/sec baseline or if the median of its
per-pair warn-mode overheads exceeds ``--max-overhead``, and writes
``BENCH_watchdog.json`` with off and warn medians plus that overhead
percentage.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario

sys.path.insert(0, ".")  # the repo root, for tests.net.helpers
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_simulator_speed import _bench_scenarios, check_regression  # noqa: E402


def _run_seconds(config: ExperimentConfig, watchdog: str | None) -> tuple[float, int]:
    """Wall seconds and event count of one run."""
    t0 = time.perf_counter()
    res = materialize(Scenario(config=config), watchdog=watchdog).run()
    return time.perf_counter() - t0, res.sim_events


def _mode(seconds: list[float], events: int) -> dict:
    median = statistics.median(seconds)
    return {
        "sim_events": events,
        "median_seconds": round(median, 4),
        "events_per_sec": round(events / median),
    }


def measure_pairs(config: ExperimentConfig, pairs: int) -> dict:
    """``pairs`` interleaved (off, warn) runs of one scenario.

    Each pair runs back to back, so a host that slows down or speeds up
    between pairs moves both of its runs; the warn-mode overhead is the
    median of the per-pair overheads, and each mode reports its median
    run.
    """
    off, warn, overheads = [], [], []
    for _ in range(pairs):
        off_s, events = _run_seconds(config, None)
        warn_s, _ = _run_seconds(config, "warn")
        off.append(off_s)
        warn.append(warn_s)
        overheads.append(1.0 - off_s / warn_s)
    return {
        "off": _mode(off, events),
        "warn": _mode(warn, events),
        "warn_overhead_pct": round(100.0 * statistics.median(overheads), 1),
    }


def run_overhead_suite(quick: bool = False) -> dict:
    """Measure all scenarios in interleaved watchdog off/warn pairs.

    ``quick`` cuts pairs only (3 instead of 5) — iterations stay at the
    baseline's 10 for the same reason as ``bench_metrics_overhead``:
    shorter runs amortize less setup per event and would read as a
    phantom regression against the full-mode ``BENCH_simulator.json``.
    """
    iterations = 10
    pairs = 3 if quick else 5
    report: dict = {
        "benchmark": "watchdog_overhead",
        "mode": "quick" if quick else "full",
        "iterations": iterations,
        "pairs": pairs,
        "scenarios": {},
    }
    for name, cfg in _bench_scenarios(iterations).items():
        report["scenarios"][name] = measure_pairs(cfg, pairs)
    return report


def off_view(report: dict) -> dict:
    """The watchdog-off medians in ``BENCH_simulator.json`` shape, so
    :func:`bench_simulator_speed.check_regression` applies directly."""
    return {
        "scenarios": {
            name: entry["off"] for name, entry in report["scenarios"].items()
        }
    }


def warn_overhead_failures(report: dict, max_overhead: float) -> list[str]:
    """Scenarios whose median per-pair warn-mode overhead exceeds
    ``max_overhead``."""
    failures = []
    for name, entry in report["scenarios"].items():
        pct = entry["warn_overhead_pct"]
        if pct > 100.0 * max_overhead:
            failures.append(
                f"{name}: warn-mode overhead {pct:.1f}% "
                f"> {100.0 * max_overhead:.0f}% budget"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure watchdog overhead and write BENCH_watchdog.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 3 off/warn pairs instead of 5")
    parser.add_argument("--output", default="BENCH_watchdog.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH_simulator.json to compare the watchdog-off "
                             "numbers against; exit 1 on regression")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed watchdog-off events/sec drop vs the "
                             "baseline (default: %(default)s)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="allowed warn-mode events/sec overhead vs "
                             "watchdog off (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_overhead_suite(quick=args.quick)
    for name, entry in report["scenarios"].items():
        print(f"{name:20s} off {entry['off']['events_per_sec']:>12,} ev/s"
              f"   warn {entry['warn']['events_per_sec']:>12,} ev/s"
              f"   overhead {entry['warn_overhead_pct']:>5.1f}%")

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    failed = False
    overhead_failures = warn_overhead_failures(report, args.max_overhead)
    if overhead_failures:
        print("WATCHDOG WARN-MODE OVERHEAD OVER BUDGET:")
        for line in overhead_failures:
            print(f"  {line}")
        failed = True
    else:
        print(f"warn-mode overhead within {args.max_overhead:.0%} on all "
              f"scenarios")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = check_regression(off_view(report), baseline,
                                    args.max_regression)
        if failures:
            print("WATCHDOG-OFF THROUGHPUT REGRESSION:")
            for line in failures:
                print(f"  {line}")
            failed = True
        else:
            print(f"watchdog-off throughput within {args.max_regression:.0%} "
                  f"of {args.baseline}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
