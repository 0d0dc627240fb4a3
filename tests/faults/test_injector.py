"""Tests for the fault injector: determinism, recovery, and validation."""

import numpy as np
import pytest

from repro.errors import ConfigError, FaultError
from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ParallelExecutor,
    Scenario,
    SerialExecutor,
)
from repro.experiments.runtime import execute_scenario, materialize
from repro.faults import (
    BurstLoss,
    FaultPlan,
    HostCrash,
    NicDegrade,
    PSCrash,
    RecoverySpec,
    Straggler,
)

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)

CHAOS = FaultPlan(
    faults=(
        PSCrash(job="job00", at=0.4, recover_after=0.3),
        BurstLoss(host="h01", at=0.2, loss=0.05, duration=0.5),
        Straggler(host="h02", at=0.1, slowdown=3.0, duration=0.5),
    ),
    recovery=RecoverySpec(barrier_mode="proceed", barrier_timeout=0.5),
)


def _faulted(plan=CHAOS, config=MICRO):
    return Scenario(config=config, faults=plan)


def _assert_bit_equal(a, b):
    assert a.jcts == b.jcts
    assert a.makespan == b.makespan
    assert a.sim_events == b.sim_events
    assert a.fault_events == b.fault_events
    np.testing.assert_array_equal(a.barrier_wait_means(),
                                  b.barrier_wait_means())


def test_faulted_runs_bit_equal_serial_vs_parallel():
    """The acceptance bar: chaos is deterministic across process boundaries."""
    scenarios = [_faulted()]
    serial = Campaign(executor=SerialExecutor()).run(scenarios)
    parallel = Campaign(executor=ParallelExecutor(max_workers=2)).run(scenarios)
    _assert_bit_equal(serial.results[0], parallel.results[0])
    assert serial.results[0].fault_events  # the plan actually fired


def test_faulted_run_is_reproducible_in_process():
    a, b = execute_scenario(_faulted()), execute_scenario(_faulted())
    _assert_bit_equal(a, b)


def test_fault_plan_changes_content_key():
    clean = Scenario(config=MICRO)
    assert _faulted().key() != clean.key()
    other = FaultPlan(faults=CHAOS.faults, recovery=CHAOS.recovery,
                      lost_iterations=CHAOS.lost_iterations + 1)
    assert _faulted().key() != _faulted(plan=other).key()


def test_ps_crash_recovery_completes_and_costs_time():
    clean = execute_scenario(Scenario(config=MICRO))
    plan = FaultPlan(
        faults=(PSCrash(job="job00", at=0.4, recover_after=0.3),),
        recovery=RecoverySpec(),
    )
    faulted = execute_scenario(_faulted(plan=plan))
    actions = [e["action"] for e in faulted.fault_events]
    assert actions == ["ps_crash", "ps_recover"]
    # The crash rewinds one checkpoint iteration and adds downtime: the
    # crashed job can only get slower.
    assert faulted.jcts["job00"] > clean.jcts["job00"]


def test_straggler_and_degrade_restore_cleanly():
    plan = FaultPlan(faults=(
        Straggler(host="h02", at=0.05, slowdown=8.0, duration=0.2),
        NicDegrade(host="h01", at=0.05, factor=0.05, duration=0.2),
    ))
    clean = execute_scenario(Scenario(config=MICRO))
    faulted = execute_scenario(_faulted(plan=plan))
    assert faulted.makespan >= clean.makespan
    actions = [e["action"] for e in faulted.fault_events]
    assert actions.count("straggler_on") == actions.count("straggler_off") == 1
    assert actions.count("nic_degrade") == actions.count("nic_restore") == 1


def test_host_crash_with_recovery_finishes_surviving_jobs():
    """Crashing a worker host kills one worker of every job placed there;
    with barrier_mode="proceed" each job finishes on the survivors."""
    plan = FaultPlan(
        faults=(HostCrash(host="h02", at=0.3, recover_after=0.4),),
        recovery=RecoverySpec(barrier_mode="proceed", barrier_timeout=0.3,
                              barrier_grace=1),
    )
    result = execute_scenario(_faulted(plan=plan))
    assert set(result.jcts) == {"job00", "job01"}
    actions = [e["action"] for e in result.fault_events]
    assert "host_crash" in actions and "host_recover" in actions


@pytest.mark.parametrize("plan", [
    FaultPlan(faults=(Straggler(host="h99", at=0.1),)),
    FaultPlan(faults=(PSCrash(job="job99", at=0.1),)),
])
def test_unknown_targets_rejected(plan):
    with pytest.raises(FaultError):
        execute_scenario(_faulted(plan=plan))


@pytest.mark.parametrize("config", [
    MICRO.replace(sync=False),
    MICRO.replace(n_ps=2),
])
def test_faults_need_single_sync_ps(config):
    with pytest.raises(ConfigError):
        execute_scenario(_faulted(config=config))


def test_burst_loss_refusing_migrated_backlog_retransmits():
    """A burst-loss netem qdisc replacing a backlogged FIFO can draw a
    loss for a migrated segment: the loss-tolerant NIC counts it as an
    egress drop and the transport retransmits it, instead of the run
    dying in ``set_qdisc``."""
    config = ExperimentConfig.tiny(
        iterations=2, placement_index=4, link_gbps=1.0, window_segments=2,
        switch_buffer_bytes=None, seed=0,
    )
    plan = FaultPlan(
        faults=(BurstLoss(at=0.1, host="h02", duration=0.3, loss=0.1),),
        recovery=RecoverySpec(barrier_mode="proceed"),
    )
    runtime = materialize(_faulted(plan=plan, config=config))
    result = runtime.run()
    assert set(result.jcts) == {f"job{j:02d}" for j in range(config.n_jobs)}
    assert runtime.cluster.host("h02").nic.egress_drops > 0
    assert result.sim_events == 2390
