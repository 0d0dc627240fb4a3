"""Overhead guard for run metrics (``materialize(metrics=True)``).

The data path never sees a metrics registry: components keep plain
counts and jobs keep their barrier waits, ``scrape_cluster`` reads them
once at run end, and the one observation made during the run — message
latency — is a delivery tap installed only when metrics are on.  So a
run with metrics off must stay within a few percent of the
pre-instrumentation baseline.  This benchmark enforces that, and
reports (informationally) what turning metrics on actually costs.

Runnable directly — the metrics-smoke CI job does::

    python benchmarks/bench_metrics_overhead.py --quick \
        --baseline BENCH_simulator.json --max-regression 0.05

which re-measures the same three end-to-end scenarios as
``bench_simulator_speed`` with metrics off (the default code path),
fails if any is more than ``--max-regression`` below the checked-in
events/sec baseline, and writes ``BENCH_metrics.json`` with both
disabled and enabled numbers plus the enabled-overhead percentage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario
from repro.telemetry import MetricsRegistry

sys.path.insert(0, ".")  # the repo root, for tests.net.helpers
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_simulator_speed import _bench_scenarios, check_regression  # noqa: E402


def measure_pair(config: ExperimentConfig, repeats: int) -> tuple[dict, dict]:
    """Best-of-``repeats`` events/sec with metrics off and on.

    The two modes are *interleaved* (off, on, off, on, ...) rather than
    measured in separate blocks: machine-speed drift between blocks
    otherwise dominates the overhead ratio on short scenarios.
    """
    best = {False: (0.0, 0.0), True: (0.0, 0.0)}  # metrics -> (rate, dt)
    events = 0
    for _ in range(repeats):
        for metrics in (False, True):
            t0 = time.perf_counter()
            res = materialize(Scenario(config=config), metrics=metrics).run()
            dt = time.perf_counter() - t0
            events = res.sim_events
            rate = events / dt
            if rate > best[metrics][0]:
                best[metrics] = (rate, dt)
    return tuple(
        {
            "sim_events": events,
            "best_seconds": round(best[metrics][1], 4),
            "events_per_sec": round(best[metrics][0]),
        }
        for metrics in (False, True)
    )


def run_overhead_suite(quick: bool = False) -> dict:
    """Measure all scenarios disabled and enabled.

    ``quick`` cuts repeats only — iterations stay at the baseline's 10,
    because events/sec is compared against the full-mode
    ``BENCH_simulator.json`` and shorter runs amortize less setup
    (cluster build, import cost) per event, which would read as a ~20%
    phantom regression.
    """
    iterations = 10
    repeats = 2 if quick else 3
    report: dict = {
        "benchmark": "metrics_overhead",
        "mode": "quick" if quick else "full",
        "iterations": iterations,
        "best_of": repeats,
        "scenarios": {},
    }
    for name, cfg in _bench_scenarios(iterations).items():
        disabled, enabled = measure_pair(cfg, repeats)
        overhead = 1.0 - enabled["events_per_sec"] / disabled["events_per_sec"]
        report["scenarios"][name] = {
            "disabled": disabled,
            "enabled": enabled,
            "enabled_overhead_pct": round(100.0 * overhead, 1),
        }
    return report


def disabled_view(report: dict) -> dict:
    """The metrics-off numbers in ``BENCH_simulator.json`` shape,
    so :func:`bench_simulator_speed.check_regression` applies directly."""
    return {
        "scenarios": {
            name: entry["disabled"]
            for name, entry in report["scenarios"].items()
        }
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure run-metrics overhead and write BENCH_metrics.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer iterations and repeats")
    parser.add_argument("--output", default="BENCH_metrics.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH_simulator.json to compare the disabled "
                             "numbers against; exit 1 on regression")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed disabled-mode events/sec drop vs the "
                             "baseline (default: %(default)s)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if any scenario's *enabled* overhead "
                             "exceeds this fraction (e.g. 0.10); default: "
                             "report only")
    args = parser.parse_args(argv)

    report = run_overhead_suite(quick=args.quick)
    for name, entry in report["scenarios"].items():
        print(f"{name:20s} disabled {entry['disabled']['events_per_sec']:>12,} ev/s"
              f"   enabled {entry['enabled']['events_per_sec']:>12,} ev/s"
              f"   overhead {entry['enabled_overhead_pct']:>5.1f}%")

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = check_regression(
            disabled_view(report), baseline, args.max_regression
        )
        if failures:
            print("METRICS OVERHEAD REGRESSION (metrics off):")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"metrics-off throughput within {args.max_regression:.0%} "
              f"of {args.baseline}")

    if args.max_overhead is not None:
        over = [
            f"{name}: {entry['enabled_overhead_pct']:.1f}% enabled overhead "
            f"> {100 * args.max_overhead:.0f}% allowed"
            for name, entry in report["scenarios"].items()
            if entry["enabled_overhead_pct"] > 100.0 * args.max_overhead
        ]
        if over:
            print("ENABLED-METRICS OVERHEAD TOO HIGH:")
            for line in over:
                print(f"  {line}")
            return 1
        print(f"enabled-metrics overhead within {args.max_overhead:.0%} "
              "on every scenario")
    return 0


def test_counter_push_throughput(benchmark):
    """100k counter increments through the get-or-create path."""
    metrics = MetricsRegistry()

    def run():
        for i in range(100_000):
            metrics.counter("tx", host="h00").inc()
        return metrics.counter("tx", host="h00").value

    assert benchmark(run) > 0


if __name__ == "__main__":
    raise SystemExit(main())
