"""Unit tests for the processor-sharing CPU model."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cpu import ProcessorSharingCPU
from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_invalid_cores():
    sim = Simulator()
    with pytest.raises(SimulationError):
        ProcessorSharingCPU(sim, cores=0)


def test_negative_demand_rejected():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)
    with pytest.raises(SimulationError):
        cpu.run(-1.0)


def test_single_job_runs_at_full_rate():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=4)
    done = []

    def proc():
        yield cpu.run(2.0)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_zero_demand_completes_immediately():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)
    done = []

    def proc():
        yield cpu.run(0.0)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [0.0]


def test_two_jobs_on_one_core_share():
    """Two 1-core-second jobs on 1 core each take 2 s wall."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=1)
    done = []

    def proc(name):
        yield cpu.run(1.0)
        done.append((name, sim.now))

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(2.0), pytest.approx(2.0)]


def test_jobs_within_core_count_run_at_full_rate():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=4)
    done = []

    def proc():
        yield cpu.run(3.0)
        done.append(sim.now)

    for _ in range(4):
        sim.spawn(proc())
    sim.run()
    assert all(t == pytest.approx(3.0) for t in done)


def test_unequal_demands_finish_in_order():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=1)
    done = []

    def proc(name, demand):
        yield cpu.run(demand)
        done.append((name, sim.now))

    sim.spawn(proc("short", 1.0))
    sim.spawn(proc("long", 2.0))
    sim.run()
    # PS: both at rate 1/2 until short finishes at t=2; long then runs
    # alone with 1 core-second left -> t=3.
    assert done == [("short", pytest.approx(2.0)), ("long", pytest.approx(3.0))]


def test_late_arrival_slows_running_job():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=1)
    done = []

    def first():
        yield cpu.run(2.0)
        done.append(("first", sim.now))

    def second():
        yield Timeout(1.0)
        yield cpu.run(0.5)
        done.append(("second", sim.now))

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    # first runs alone [0,1) doing 1.0; shares [1,2) doing 0.5 each; second
    # finishes at t=2.0 (0.5 done), first has 0.5 left alone -> t=2.5.
    assert done == [("second", pytest.approx(2.0)), ("first", pytest.approx(2.5))]


def test_busy_core_time_accounting():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=2)
    for _ in range(2):
        sim.spawn((lambda: (yield cpu.run(1.5)))())
    sim.run()
    assert cpu.utilization_snapshot() == pytest.approx(3.0)


def test_busy_core_time_capped_by_cores():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=1)
    for _ in range(4):
        sim.spawn((lambda: (yield cpu.run(1.0)))())
    sim.run()
    # 4 core-seconds of work on 1 core -> 4 s wall, busy == 4 core-seconds
    assert sim.now == pytest.approx(4.0)
    assert cpu.utilization_snapshot() == pytest.approx(4.0)


def test_rate_per_job():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=2)
    assert cpu.rate_per_job == 0.0
    sim.spawn((lambda: (yield cpu.run(10.0)))())
    sim.run(until=0.1)
    assert len(cpu._jobs) == 1
    assert cpu.rate_per_job == 1.0


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12),
)
def test_property_total_work_conserved(cores, demands):
    """Makespan == max(total_work / cores, longest_job) bounds hold, and
    busy core-time equals the total submitted work."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=cores)
    for d in demands:
        sim.spawn((lambda d=d: (yield cpu.run(d)))())
    sim.run()
    total = sum(demands)
    assert cpu.utilization_snapshot() == pytest.approx(total, rel=1e-6)
    lower = max(total / cores, max(demands))
    assert sim.now >= lower - 1e-6
    assert sim.now <= total + 1e-6  # never slower than fully serial


def test_utilization_snapshot_mid_run_partial_progress():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=1)
    sim.spawn((lambda: (yield cpu.run(4.0)))())
    sim.run(until=1.5)
    assert cpu.utilization_snapshot() == pytest.approx(1.5)
    assert len(cpu._jobs) == 1


def test_many_tiny_jobs_complete_in_bounded_steps():
    """Event-count regression guard: n jobs need O(n) completion events."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, cores=4)
    n = 300
    for _ in range(n):
        sim.spawn((lambda: (yield cpu.run(0.01)))())
    sim.run()
    # spawn + start + completion bookkeeping stays linear-ish
    assert sim.steps_executed < 20 * n
