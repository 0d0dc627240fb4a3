"""The benchmark's workloads and how each one is measured.

Every workload turns ``--seed`` into ``ExperimentConfig.seed`` (the
campaign grid uses seeds ``S..S+3``) and runs in its own process.  A
simulation workload's timed unit is one fresh ``materialize()`` plus
``Runtime.run()``; the campaign workload's timed unit is one cold pass
over its 96-scenario grid.  After each timed unit the same results are
served again from a warm :class:`ResultCache`, which is what re-rendering
a figure costs.  Every result is checked by content hash (see
:class:`Checker`).

Why these five: ``fig2-fifo`` and ``fig2-tls-one`` share topology and
traffic and differ only in the qdisc (PFifo against the TensorLights
HTB), so a qdisc or controller change moves one and not the other.
``ring-allreduce`` has no PS, no HTB and no Table I placement, so PS-path
changes must leave it alone.  ``faults-packet`` is the only workload at
packet granularity (faults and netem turn the flow fast path off), with
the fault injector, DL recovery and the observation channels on.
``campaign-grid`` is the only one that exercises the campaign layer's
pool, cache, journal and decode paths at volume.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments import runtime as runtime_mod
from repro.experiments.campaign import (
    Campaign,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.export import result_content_hash
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan, PSCrash, RecoverySpec

from ledger import Ledger

#: iterations of the untimed warm-up run that precedes every workload
WARMUP_ITERATIONS = 3
#: pool size of the cold campaign pass (the benchmark host has 2 cores)
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Size:
    """How much one run measures: repeats are added until ``seconds``."""

    min_repeats: int
    setup_samples: int
    warm_passes: int


FULL = Size(min_repeats=3, setup_samples=5, warm_passes=3)
QUICK = Size(min_repeats=2, setup_samples=2, warm_passes=2)


def _fig2(policy: Policy) -> Callable[[int, int], List[Scenario]]:
    def build(seed: int, iterations: int) -> List[Scenario]:
        return [Scenario(ExperimentConfig(
            iterations=iterations, placement_index=1, policy=policy, seed=seed,
        ))]
    return build


def _ring(seed: int, iterations: int) -> List[Scenario]:
    return [Scenario(ExperimentConfig(
        iterations=iterations, n_jobs=8, n_workers=8,
        architecture=Architecture.ALLREDUCE, seed=seed,
    ))]


def _faults(seed: int, iterations: int) -> List[Scenario]:
    # An unbounded switch buffer keeps the run free of incast tail drops.
    # With the default 4 MB buffer the PS crash sets off an RTO storm whose
    # size swings ~20% (interquartile) from seed to seed, which no timing
    # bound could absorb; without it the event count varies < 1%, while
    # the crash, the recovery, netem loss and its retransmits all remain.
    config = ExperimentConfig(
        iterations=iterations, placement_index=1, policy=Policy.TLS_ONE,
        netem_loss=0.01, switch_buffer_bytes=None, seed=seed,
    )
    plan = FaultPlan(
        (PSCrash(job="job00", at=0.5, recover_after=0.5),),
        recovery=RecoverySpec(barrier_mode="proceed"),
    )
    return [Scenario(config, faults=plan)]


def _grid(placements: Sequence[int], seeds: int, hosts: int):
    def build(seed: int, iterations: int) -> List[Scenario]:
        return [
            Scenario(ExperimentConfig(
                n_jobs=hosts, n_workers=hosts, iterations=iterations,
                placement_index=p, policy=policy, seed=s,
            ))
            for p in placements
            for policy in (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)
            for s in range(seed, seed + seeds)
        ]
    return build


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, iterations) -> scenarios`` at full size and at --quick size
    build: Callable[[int, int], List[Scenario]]
    iterations: int
    quick_build: Callable[[int, int], List[Scenario]]
    quick_iterations: int
    #: observation switches passed to ``materialize``
    observe: Dict[str, object] = field(default_factory=dict)

    @property
    def is_grid(self) -> bool:
        return self.name == "campaign-grid"

    def scenarios(self, seed: int, quick: bool,
                  iterations: Optional[int] = None) -> List[Scenario]:
        build = self.quick_build if quick else self.build
        default = self.quick_iterations if quick else self.iterations
        return build(seed, iterations or default)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig2-fifo", _fig2(Policy.FIFO), 20, _fig2(Policy.FIFO), 3),
    Workload("fig2-tls-one", _fig2(Policy.TLS_ONE), 20, _fig2(Policy.TLS_ONE), 3),
    Workload("ring-allreduce", _ring, 100, _ring, 10),
    Workload("faults-packet", _faults, 8, _faults, 3,
             observe={"metrics": True, "watchdog": "warn"}),
    Workload("campaign-grid", _grid(range(1, 9), 4, 8), 4, _grid((1, 2), 1, 4), 3),
)}


# -- correctness ---------------------------------------------------------


def grid_digest(hashes: Sequence[str]) -> str:
    """One digest for a unit: a run's hash, or the hash of a grid's hashes."""
    if len(hashes) == 1:
        return hashes[0]
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


class Checker:
    """Counts checked results and those that do not match.

    A unit is one run (one hash) or one grid pass (one hash per
    scenario, ``None`` where the scenario failed).  The first complete
    unit is the reference every later unit must equal; with a golden
    digest, the reference itself must match it, or every result fails.
    """

    def __init__(self, golden: Optional[str]) -> None:
        self.golden = golden
        self.reference: Optional[List[str]] = None
        self.reference_ok = False
        self.attempted = 0
        self.failed = 0

    def unit(self, hashes: Sequence[Optional[str]]) -> None:
        self.attempted += len(hashes)
        if self.reference is None and None not in hashes:
            self.reference = list(hashes)
            self.reference_ok = (
                self.golden is None or grid_digest(self.reference) == self.golden
            )
        ref = self.reference
        for i, digest in enumerate(hashes):
            if ref is None or not self.reference_ok or digest != ref[i]:
                self.failed += 1

    @property
    def digest(self) -> Optional[str]:
        return grid_digest(self.reference) if self.reference else None


def _hashes(results) -> List[Optional[str]]:
    return [result_content_hash(r) if r is not None else None for r in results]


# -- measurement -----------------------------------------------------------


#: What :func:`host_probe` takes on the reference host (2 vCPUs of an
#: Intel Xeon at 2.0 GHz, idle).  Timings are reported at that host speed.
REFERENCE_PROBE_S = 0.020


def host_probe() -> float:
    """How fast the host is now: best of 5 runs of a fixed pure-Python loop.

    The loop is the benchmark's own code, so no change to the program
    under test can move it.
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Scales each timing to the reference host speed.

    The benchmark host is shared: other tenants slow it down by up to
    ~1.9x for minutes at a time, far more than a regression bound can
    absorb.  The probe runs before the first sample and after every one,
    and a sample is multiplied by ``REFERENCE_PROBE_S`` over the mean of
    the probes on either side of it.
    """

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def scale(self) -> float:
        """Probe again; the factor for the samples taken since the last probe."""
        self.probes.append(host_probe())
        return 2 * REFERENCE_PROBE_S / (self.probes[-2] + self.probes[-1])


@dataclass
class Samples:
    """Samples of one run; ``run.py`` turns them into metrics.

    ``wall``, ``rate``, ``warm`` and ``setup`` are at reference host speed
    (see :class:`HostSpeed`); ``raw`` holds the same timings as measured.
    """

    wall: List[float] = field(default_factory=list)
    rate: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)

    def add(self, kind: str, seconds: float, factor: float) -> None:
        getattr(self, kind).append(seconds * factor)
        self.raw.setdefault(kind, []).append(seconds)


def setup_time(w: Workload, seed: int, quick: bool,
               bench_dir: Path, src_dir: Path) -> float:
    """Fresh-process set-up: interpreter start to ``materialize()`` return."""
    code = (
        "import os, workloads\n"
        f"w = workloads.WORKLOADS[{w.name!r}]\n"
        f"s = w.scenarios({seed}, {quick})[0]\n"
        "workloads.runtime_mod.materialize(s, **w.observe)\n"
        "os._exit(0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src_dir), str(bench_dir)]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def _warm_up(w: Workload, seed: int, quick: bool) -> None:
    scenario = w.scenarios(seed, quick, WARMUP_ITERATIONS)[0]
    runtime_mod.materialize(scenario, **w.observe).run()


def _until(size: Size, seconds: float) -> Callable[[int], bool]:
    deadline = time.perf_counter() + seconds
    return lambda done: done < size.min_repeats or time.perf_counter() < deadline


def _warm_pass(scenarios: List[Scenario], cache_dir: Path):
    """Serve every scenario from the warm cache; ``(seconds, results)``."""
    t0 = time.perf_counter()
    res = Campaign(cache=ResultCache(cache_dir), on_failure="report").run(scenarios)
    return time.perf_counter() - t0, res.results


def _run_one(w: Workload, scenario: Scenario):
    """One timed unit: ``(seconds, result or None)``; errors count as failures."""
    rt = runtime_mod.materialize(scenario, **w.observe)
    t0 = time.perf_counter()
    try:
        result = rt.run()
    except ReproError:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def _cold_pass(scenarios: List[Scenario], work: Path, executor):
    """One cold grid pass into a fresh cache; ``(seconds, results)``."""
    t0 = time.perf_counter()
    res = Campaign(
        executor=executor, cache=ResultCache(work / "cache"), journal=True,
        journal_dir=work / "journals", on_failure="report",
    ).run(scenarios)
    return time.perf_counter() - t0, res.results


def measure(w: Workload, seed: int, seconds: float, quick: bool,
            checker: Checker, work: Path, bench_dir: Path,
            src_dir: Path) -> Samples:
    """The untraced run: end-to-end samples of one workload."""
    size = QUICK if quick else FULL
    scenarios = w.scenarios(seed, quick)
    _warm_up(w, seed, quick)
    samples, speed = Samples(), HostSpeed()
    for _ in range(size.setup_samples):
        samples.add("setup", setup_time(w, seed, quick, bench_dir, src_dir),
                    speed.scale())
    more = _until(size, seconds)
    done = 0
    while more(done):
        done += 1
        unit = work / f"unit{done}"
        gc.collect()
        if w.is_grid:
            dt, results = _cold_pass(
                scenarios, unit, ParallelExecutor(max_workers=CAMPAIGN_WORKERS))
            factor = speed.scale()
        else:
            dt, result = _run_one(w, scenarios[0])
            factor = speed.scale()
            results = [result]
            if result is not None:
                ResultCache(unit / "cache").put(scenarios[0], result)
        checker.unit(_hashes(results))
        if None in results:
            continue
        samples.add("wall", dt, factor)
        samples.rate.append(sum(r.sim_events for r in results) / (dt * factor))
        warm = [_warm_pass(scenarios, unit / "cache")
                for _ in range(size.warm_passes)]
        factor = speed.scale()
        for warm_dt, warm_results in warm:
            samples.add("warm", warm_dt, factor)
            checker.unit(_hashes(warm_results))
        shutil.rmtree(unit, ignore_errors=True)
    samples.probes = speed.probes
    return samples


def measure_traced(w: Workload, seed: int, seconds: float, quick: bool,
                   checker: Checker, work: Path) -> Tuple[Samples, Ledger]:
    """The traced run: pairs of an untraced and a traced unit.

    Returns ``(samples, ledger)``; ``samples.wall``/``samples.traced``
    hold the untraced/traced unit times for ``trace.overhead``.  The
    campaign grid runs serially here, so every call it times happens in
    this process.
    """
    size = QUICK if quick else FULL
    scenarios = w.scenarios(seed, quick)
    _warm_up(w, seed, quick)
    samples, ledger = Samples(probes=[host_probe()]), Ledger()
    more = _until(Size(1, 0, size.warm_passes), seconds)
    done = 0
    while more(done):
        done += 1
        plain, traced = work / f"plain{done}", work / f"traced{done}"
        gc.collect()
        if w.is_grid:
            dt, results = _cold_pass(scenarios, plain, SerialExecutor())
        else:
            dt, result = _run_one(w, scenarios[0])
            results = [result]
        checker.unit(_hashes(results))
        if None not in results:
            samples.wall.append(dt)
        warm_results = []
        gc.collect()
        with ledger.active():
            if w.is_grid:
                dt, results = _cold_pass(scenarios, traced, SerialExecutor())
            else:
                dt, result = _run_one(w, scenarios[0])
                results = [result]
                if result is not None:
                    ResultCache(traced / "cache").put(scenarios[0], result)
            if None not in results:
                for _ in range(size.warm_passes):
                    warm_results.append(
                        _warm_pass(scenarios, traced / "cache")[1])
        checker.unit(_hashes(results))
        if None not in results:
            samples.traced.append(dt)
        for warm in warm_results:
            checker.unit(_hashes(warm))
        shutil.rmtree(plain, ignore_errors=True)
        shutil.rmtree(traced, ignore_errors=True)
    samples.probes.append(host_probe())
    return samples, ledger


def digest(w: Workload, seed: int, quick: bool) -> str:
    """Run the workload's unit once and return its golden digest."""
    scenarios = w.scenarios(seed, quick)
    if w.is_grid:
        results = Campaign(
            executor=ParallelExecutor(max_workers=CAMPAIGN_WORKERS)
        ).run(scenarios).results
    else:
        results = [runtime_mod.materialize(scenarios[0], **w.observe).run()]
    return grid_digest(_hashes(results))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, p90 and count of a sample."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "p90": 0.0, "n": 0}
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "p90": v, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    p90 = statistics.quantiles(values, n=10)[-1]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "p90": p90, "n": len(values)}
