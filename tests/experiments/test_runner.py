"""Integration tests for the experiment runner (tiny scale)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, Policy, Scenario, execute_scenario
from repro.telemetry import ActiveWindow

TINY = ExperimentConfig.tiny()


def test_runner_completes_all_jobs():
    res = execute_scenario(Scenario(config=TINY))
    assert len(res.jcts) == TINY.n_jobs
    assert all(j > 0 for j in res.jcts.values())
    assert res.makespan > 0
    assert res.sim_events > 0
    for m in res.metrics.values():
        assert m.global_steps == TINY.target_global_steps


def test_runner_is_deterministic():
    a = execute_scenario(Scenario(config=TINY))
    b = execute_scenario(Scenario(config=TINY))
    assert a.jcts == b.jcts
    assert a.sim_events == b.sim_events


def test_seed_changes_results():
    a = execute_scenario(Scenario(config=TINY))
    b = execute_scenario(Scenario(config=TINY.replace(seed=TINY.seed + 1)))
    assert a.jcts != b.jcts


def test_ps_host_mapping_respects_placement():
    res = execute_scenario(Scenario(config=TINY.replace(placement_index=1)))
    assert len(set(res.ps_host_of_job.values())) == 1
    res8 = execute_scenario(Scenario(config=TINY.replace(placement_index=8)))
    assert len(set(res8.ps_host_of_job.values())) == TINY.n_jobs


def test_worker_only_hosts_partition():
    res = execute_scenario(Scenario(config=TINY.replace(placement_index=1)))
    assert len(res.ps_hosts) == 1
    assert len(res.worker_only_hosts()) == TINY.n_hosts - 1
    assert not set(res.ps_hosts) & set(res.worker_only_hosts())


def test_tls_policies_produce_tc_commands():
    res = execute_scenario(Scenario(config=TINY.replace(policy=Policy.TLS_ONE)))
    assert any("htb" in c for c in res.tc_commands)
    fifo = execute_scenario(Scenario(config=TINY))
    assert fifo.tc_commands == []


def test_drr_policy_runs():
    res = execute_scenario(Scenario(config=TINY.replace(policy=Policy.DRR)))
    assert len(res.jcts) == TINY.n_jobs


def test_barrier_arrays_populated():
    res = execute_scenario(Scenario(config=TINY))
    means = res.barrier_wait_means()
    variances = res.barrier_wait_variances()
    # iterations-1 complete barriers per job
    expected = TINY.n_jobs * (TINY.iterations - 1)
    assert means.size == expected
    assert variances.size == expected
    assert (means >= 0).all() and (variances >= 0).all()


def test_sampling_collects_utilization():
    cfg = TINY.replace(sample_hosts=True, sample_interval=0.25)
    res = execute_scenario(Scenario(config=cfg))
    assert len(res.samplers) == cfg.n_hosts
    window = ActiveWindow(0.25, max(0.75, 0.5 * res.makespan))
    util = res.mean_utilization(res.ps_hosts, "cpu", window)
    assert 0.0 <= util <= 1.0
    out = res.mean_utilization(res.ps_hosts, "net_out", window)
    assert out > 0.0


def test_utilization_requires_sampling():
    res = execute_scenario(Scenario(config=TINY))
    with pytest.raises(ConfigError):
        res.mean_utilization(["h00"], "cpu", ActiveWindow(0.0, 1.0))


def test_mismatched_placement_rejected():
    from repro.cluster.placement import PlacementSpec

    with pytest.raises(ConfigError):
        execute_scenario(Scenario(config=TINY, placement=PlacementSpec((1, 1))))


def test_explicit_placement_override():
    from repro.cluster.placement import PlacementSpec

    spec = PlacementSpec((2, 2))
    res = execute_scenario(Scenario(config=TINY, placement=spec))
    assert sorted(
        list(res.ps_host_of_job.values()).count(h) for h in set(res.ps_host_of_job.values())
    ) == [2, 2]


def test_avg_jct_is_mean_of_jobs():
    res = execute_scenario(Scenario(config=TINY))
    assert res.avg_jct == pytest.approx(np.mean(list(res.jcts.values())))


def test_async_mode_runs_to_completion():
    res = execute_scenario(Scenario(config=TINY.replace(sync=False)))
    for m in res.metrics.values():
        assert m.global_steps == TINY.target_global_steps
