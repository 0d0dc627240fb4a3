"""Round-trip tests for the full ExperimentResult serialization.

The campaign's result cache stores results as JSON
(:func:`result_to_full_dict` / :func:`result_from_full_dict`); these
tests pin the contract: everything a figure generator reads — JCTs,
barrier statistics, utilization — survives the round trip exactly.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, Scenario, execute_scenario
from repro.experiments.export import (
    result_from_full_dict,
    result_to_full_dict,
)
from repro.telemetry import ActiveWindow

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def _round_trip(result):
    # Through actual JSON text, as the on-disk cache stores it.
    return result_from_full_dict(json.loads(json.dumps(
        result_to_full_dict(result)
    )))


def test_round_trip_preserves_summary_stats():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    assert back.config == res.config
    assert back.jcts == res.jcts
    assert back.avg_jct == res.avg_jct
    assert back.makespan == res.makespan
    assert back.sim_events == res.sim_events
    assert back.ps_host_of_job == res.ps_host_of_job
    assert back.tc_commands == res.tc_commands
    assert back.host_ids == res.host_ids


def test_round_trip_preserves_barrier_stats():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    np.testing.assert_array_equal(back.barrier_wait_means(),
                                  res.barrier_wait_means())
    np.testing.assert_array_equal(back.barrier_wait_variances(),
                                  res.barrier_wait_variances())
    for job_id, m in res.metrics.items():
        assert back.metrics[job_id].jct == m.jct
        assert back.metrics[job_id].global_steps == m.global_steps


def test_round_trip_preserves_utilization_queries():
    res = execute_scenario(Scenario(
        config=MICRO.replace(sample_hosts=True, sample_interval=0.02)
    ))
    back = _round_trip(res)
    assert set(back.samplers) == set(res.samplers)
    window = ActiveWindow(0.1 * res.makespan, 0.9 * res.makespan)
    for kind in ("cpu", "net_in", "net_out"):
        assert back.mean_utilization(res.host_ids, kind, window) == \
            res.mean_utilization(res.host_ids, kind, window)


def test_round_trip_preserves_worker_only_hosts():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    assert back.worker_only_hosts() == res.worker_only_hosts()
    assert back.ps_hosts == res.ps_hosts


def test_round_trip_without_samplers_still_rejects_utilization():
    res = execute_scenario(Scenario(config=MICRO))  # sample_hosts=False
    back = _round_trip(res)
    window = ActiveWindow(0.0, res.makespan)
    with pytest.raises(ConfigError):
        back.mean_utilization(back.host_ids, "cpu", window)


def test_full_dict_rejects_unknown_version():
    res = execute_scenario(Scenario(config=MICRO))
    data = result_to_full_dict(res)
    data["full_schema_version"] = 999
    with pytest.raises(ConfigError):
        result_from_full_dict(data)
