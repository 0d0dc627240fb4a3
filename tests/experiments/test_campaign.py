"""Tests for the Campaign layer: executors, cache, progress, determinism."""

import numpy as np
import pytest

from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ParallelExecutor,
    Policy,
    ResultCache,
    Scenario,
    SerialExecutor,
    execute_scenario,
)
from repro.experiments.campaign import CampaignEvent

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def _scenarios():
    return [
        Scenario(config=MICRO.replace(policy=p)).with_tags(policy=p.value)
        for p in (Policy.FIFO, Policy.TLS_ONE)
    ]


def _assert_bit_equal(a, b):
    """The satellite requirement: serial and parallel runs are bit-equal."""
    assert a.jcts == b.jcts
    assert a.makespan == b.makespan
    assert a.sim_events == b.sim_events
    np.testing.assert_array_equal(a.barrier_wait_means(),
                                  b.barrier_wait_means())
    np.testing.assert_array_equal(a.barrier_wait_variances(),
                                  b.barrier_wait_variances())


def test_serial_campaign_matches_run_experiment():
    results = Campaign().run(_scenarios()).results
    for scenario, res in zip(_scenarios(), results):
        _assert_bit_equal(res, execute_scenario(scenario))


def test_parallel_executor_bit_equal_to_serial():
    scenarios = _scenarios()
    serial = Campaign(executor=SerialExecutor()).run(scenarios)
    parallel = Campaign(executor=ParallelExecutor(max_workers=2)).run(scenarios)
    for a, b in zip(serial.results, parallel.results):
        _assert_bit_equal(a, b)


def test_parallel_preserves_submission_order():
    scenarios = _scenarios()
    result = Campaign(executor=ParallelExecutor(max_workers=2)).run(scenarios)
    for scenario, res in result.pairs():
        assert res.config == scenario.config


def test_cache_serves_second_run(tmp_path):
    cache = ResultCache(tmp_path)
    scenarios = _scenarios()
    cold = Campaign(cache=cache).run(scenarios)
    assert cold.cache_hits == 0 and cold.executed == len(scenarios)
    assert len(cache) == len(scenarios)

    warm = Campaign(cache=ResultCache(tmp_path)).run(scenarios)
    assert warm.cache_hits == len(scenarios) and warm.executed == 0
    for a, b in zip(cold.results, warm.results):
        _assert_bit_equal(a, b)


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = _scenarios()[0]
    Campaign(cache=cache).run([scenario])
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{not json")
    rerun = Campaign(cache=ResultCache(tmp_path)).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1


def test_duplicate_scenarios_simulated_once():
    scenario = _scenarios()[0]
    result = Campaign().run([scenario, scenario])
    assert result.executed == 1
    assert result.results[0] is result.results[1]


def test_progress_events():
    events = []
    Campaign(progress=events.append).run(_scenarios())
    assert all(isinstance(e, CampaignEvent) for e in events)
    statuses = [e.status for e in events]
    assert statuses.count("running") == 2 and statuses.count("done") == 2
    assert events[-1].completed == events[-1].total == 2


def test_by_tag_groups_results():
    result = Campaign().run(_scenarios())
    grouped = result.by_tag("policy")
    assert set(grouped) == {"fifo", "tls-one"}
    assert all(len(v) == 1 for v in grouped.values())


def test_parallel_executor_rejects_bad_worker_count():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        ParallelExecutor(max_workers=0)
