"""Microbenchmarks of the simulation substrate itself.

Not paper results — these track the event-loop, qdisc and CPU-model
throughput so performance regressions in the substrate are visible.  They
are the only benchmarks here that use multiple rounds (they are cheap and
timing-noise-sensitive, unlike the deterministic macro experiments).

Besides the pytest-benchmark cases, this file is runnable directly::

    python benchmarks/bench_simulator_speed.py --quick \
        --baseline BENCH_simulator.json

which measures end-to-end events/sec on three representative scenarios
(fig2 placement under FIFO, the same under TLs-One, a ring all-reduce),
writes ``BENCH_simulator.json``, and exits non-zero if any scenario
regressed more than ``--max-regression`` against the baseline file.  The
checked-in ``BENCH_simulator.json`` is the reference measured when the
kernel fast path landed.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.cluster.cluster import Cluster
from repro.cluster.cpu import ProcessorSharingCPU
from repro.dl.application import DLApplication
from repro.dl.job import JobSpec
from repro.dl.model_zoo import ModelSpec
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.runtime import execute_scenario
from repro.experiments.scenario import Scenario
from repro.net.link import Link
from repro.net.qdisc import HTBQdisc, PFifo, PortFilter
from repro.sim import Simulator, Timeout
from repro.units import gbps

import sys
sys.path.insert(0, ".")  # the repo root, for tests.net.helpers
from tests.net.helpers import seg  # noqa: E402


def _bench_scenarios(iterations: int) -> dict[str, ExperimentConfig]:
    """The three end-to-end speed scenarios (full paper topology)."""
    return {
        "fig2_fifo_p1": ExperimentConfig(
            iterations=iterations, placement_index=1,
        ),
        "fig2_tls_one_p1": ExperimentConfig(
            iterations=iterations, placement_index=1, policy=Policy.TLS_ONE,
        ),
        "ring_allreduce": ExperimentConfig(
            iterations=iterations, n_jobs=8, n_workers=8,
            architecture=Architecture.ALLREDUCE,
        ),
    }


def run_big_demo(n_hosts: int = 500, n_jobs: int = 1000) -> dict:
    """Scale demo: 500 hosts x 1000 small PS jobs on one fabric.

    This is far beyond the paper's 21-host testbed — the point is that
    the flow-level fast path makes a cluster-scale what-if run finish in
    seconds instead of minutes.  The experiment configs cannot express
    it (``ExperimentConfig`` is embedded in hashed results, so it grows
    no fields), so the cluster and jobs are built directly.
    """
    sim = Simulator(seed=1)
    cluster = Cluster(
        sim, n_hosts=n_hosts, cores_per_host=8, link=Link(rate=gbps(10)),
        segment_bytes=256 * 1024, switch_buffer_bytes=4e6,
    )
    # tiny synthetic model: ~1 MB updates, 10 ms/step of compute
    model = ModelSpec("bench_demo", n_params=250_000,
                      per_sample_compute=0.005, ps_update_compute=0.0005)
    hosts = cluster.host_ids
    apps = []
    for j in range(n_jobs):
        spec = JobSpec(
            job_id=f"job{j:04d}", model=model, n_workers=2,
            local_batch_size=2, target_global_steps=8,
            arrival_time=(j % 50) * 0.01,
        )
        ps_host = hosts[j % n_hosts]
        workers = [hosts[(j + 1 + k) % n_hosts] for k in range(spec.n_workers)]
        apps.append(DLApplication(spec, cluster, ps_host, workers))
    for app in apps:
        app.launch()
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    assert all(app.metrics.finished for app in apps), (
        "big demo: not every job completed"
    )
    return {
        "n_hosts": n_hosts,
        "n_jobs": n_jobs,
        "sim_events": sim.steps_executed,
        "events_elided": sim.events_elided,
        "sim_seconds": round(sim.now, 4),
        "wall_seconds": round(dt, 4),
        "events_per_sec": round(sim.steps_executed / dt),
    }


def measure_events_per_sec(config: ExperimentConfig, repeats: int) -> dict:
    """Best-of-``repeats`` throughput of one scenario."""
    best_rate = 0.0
    best_dt = 0.0
    events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = execute_scenario(Scenario(config=config))
        dt = time.perf_counter() - t0
        events = res.sim_events
        rate = events / dt
        if rate > best_rate:
            best_rate, best_dt = rate, dt
    return {
        "sim_events": events,
        "best_seconds": round(best_dt, 4),
        "events_per_sec": round(best_rate),
    }


def run_speed_suite(quick: bool = False) -> dict:
    """Measure all scenarios; ``quick`` shrinks iterations and repeats."""
    iterations = 3 if quick else 10
    repeats = 2 if quick else 3
    report: dict = {
        "benchmark": "simulator_speed",
        "mode": "quick" if quick else "full",
        "iterations": iterations,
        "best_of": repeats,
        "scenarios": {},
    }
    for name, cfg in _bench_scenarios(iterations).items():
        report["scenarios"][name] = measure_events_per_sec(cfg, repeats)
    return report


def check_regression(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Scenarios slower than ``(1 - max_regression) * baseline`` ev/s."""
    failures = []
    for name, entry in baseline.get("scenarios", {}).items():
        measured = report["scenarios"].get(name)
        if measured is None:
            continue
        floor = entry["events_per_sec"] * (1.0 - max_regression)
        if measured["events_per_sec"] < floor:
            failures.append(
                f"{name}: {measured['events_per_sec']:,} ev/s < "
                f"{floor:,.0f} ev/s floor "
                f"(baseline {entry['events_per_sec']:,}, "
                f"-{max_regression:.0%} allowed)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure simulator events/sec and write BENCH_simulator.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer iterations and repeats")
    parser.add_argument("--output", default="BENCH_simulator.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--baseline", default=None,
                        help="compare against this report; exit 1 on regression")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed events/sec drop vs baseline "
                             "(default: %(default)s)")
    parser.add_argument("--big", action="store_true",
                        help="also run the 500-host / 1000-job scale demo")
    parser.add_argument("--big-budget", type=float, default=60.0,
                        help="wall-clock budget for --big in seconds; "
                             "exceeding it fails (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_speed_suite(quick=args.quick)
    for name, entry in report["scenarios"].items():
        print(f"{name:20s} {entry['events_per_sec']:>12,} ev/s "
              f"({entry['sim_events']:,} events, best of {report['best_of']})")

    over_budget = False
    if args.big:
        big = run_big_demo()
        report["big_demo"] = big
        print(f"{'big_demo_500x1000':20s} {big['events_per_sec']:>12,} ev/s "
              f"({big['sim_events']:,} events, {big['wall_seconds']}s wall, "
              f"{big['events_elided']:,} elided)")
        if big["wall_seconds"] > args.big_budget:
            print(f"BUDGET EXCEEDED: big demo took {big['wall_seconds']}s "
                  f"(budget {args.big_budget}s)")
            over_budget = True

    failures: list[str] = []
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = check_regression(report, baseline, args.max_regression)
        # before/after comparison, embedded in the report so CI can
        # upload the single JSON as the comparison artifact
        report["comparison"] = {
            "baseline_file": args.baseline,
            "max_regression": args.max_regression,
            "scenarios": {
                name: {
                    "baseline_events_per_sec": entry["events_per_sec"],
                    "measured_events_per_sec":
                        report["scenarios"][name]["events_per_sec"],
                    "speedup": round(
                        report["scenarios"][name]["events_per_sec"]
                        / entry["events_per_sec"], 3),
                }
                for name, entry in baseline.get("scenarios", {}).items()
                if name in report["scenarios"]
            },
        }

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if failures:
        print("PERFORMANCE REGRESSION:")
        for line in failures:
            print(f"  {line}")
        return 1
    if args.baseline:
        print(f"no regression vs {args.baseline} "
              f"(tolerance {args.max_regression:.0%})")
    return 1 if over_budget else 0


def test_event_loop_throughput(benchmark):
    """Schedule-and-run of 50k bare events."""

    def run():
        sim = Simulator()
        for i in range(50_000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.steps_executed

    steps = benchmark(run)
    assert steps == 50_000


def test_process_switch_throughput(benchmark):
    """10k generator-process context switches (Timeout yields)."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(1000):
                yield Timeout(1e-6)

        for _ in range(10):
            sim.spawn(ticker())
        sim.run()
        return sim.steps_executed

    steps = benchmark(run)
    assert steps >= 10_000


def test_pfifo_throughput(benchmark):
    """100k enqueue/dequeue pairs through the default FIFO."""
    segments = [seg(1000, sport=5000 + (i % 32)) for i in range(1000)]

    def run():
        q = PFifo()
        n = 0
        for _ in range(100):
            for s in segments:
                q.enqueue(s, 0.0)
            while q.dequeue(0.0) is not None:
                n += 1
        return n

    assert benchmark(run) == 100_000


def test_htb_throughput(benchmark):
    """50k enqueue/dequeue pairs through the TensorLights HTB shape."""
    filt = PortFilter()
    segments = [seg(1000, sport=5000 + (i % 6)) for i in range(500)]

    def build():
        q = HTBQdisc(filter=filt, default_classid=15)
        q.add_class(1, rate=1.25e9, ceil=1.25e9)
        for band in range(6):
            q.add_class(10 + band, rate=1.25e6, ceil=1.25e9,
                        prio=band, parent=1)
            filt.add_match(5000 + band, 10 + band)
        return q

    def run():
        q = build()
        n = 0
        now = 0.0
        for _ in range(100):
            for s in segments:
                q.enqueue(s, now)
            while True:
                out = q.dequeue(now)
                if out is None:
                    break
                now += out.size / 1.25e9
                n += 1
        return n

    assert benchmark(run) == 50_000


def test_processor_sharing_churn(benchmark):
    """5k job arrivals/departures on a processor-sharing CPU."""

    def run():
        sim = Simulator()
        cpu = ProcessorSharingCPU(sim, cores=12)

        def job(d):
            yield cpu.run(d)

        for i in range(5000):
            sim.spawn(job(0.001 + (i % 7) * 1e-4))
        sim.run()
        return cpu.utilization_snapshot()

    busy = benchmark(run)
    assert busy > 0


if __name__ == "__main__":
    raise SystemExit(main())
