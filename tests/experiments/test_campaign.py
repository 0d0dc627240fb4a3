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


# -- what a cache hit costs -----------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Count result content hashes and ``Scenario.to_dict`` calls (the
    latter per scenario object) made while a campaign runs."""
    from collections import Counter

    from repro.experiments import campaign as campaign_mod

    counts = {"hash": 0, "to_dict": Counter()}
    content_hash = campaign_mod.result_content_hash
    to_dict = Scenario.to_dict

    def counting_hash(result):
        counts["hash"] += 1
        return content_hash(result)

    def counting_to_dict(self):
        counts["to_dict"][id(self)] += 1
        return to_dict(self)

    monkeypatch.setattr(campaign_mod, "result_content_hash", counting_hash)
    monkeypatch.setattr(Scenario, "to_dict", counting_to_dict)
    return counts


def test_unjournaled_runs_hash_no_results(tmp_path, calls):
    cold = Campaign(cache=ResultCache(tmp_path)).run(_scenarios())
    assert cold.executed == 2
    assert calls["hash"] == 0

    calls["to_dict"].clear()
    fresh = _scenarios()  # as a new process builds them: no key memo yet
    warm = Campaign(cache=ResultCache(tmp_path)).run(fresh + fresh[:1])
    assert warm.cache_hits == 2
    assert calls["hash"] == 0
    assert sorted(calls["to_dict"].values()) == [1, 1]


def test_journaled_warm_run_hashes_each_hit_once(tmp_path, calls):
    from repro.experiments.export import result_content_hash
    from repro.experiments.journal import CampaignJournal

    scenarios = _scenarios()
    Campaign(cache=ResultCache(tmp_path / "cache")).run(scenarios)
    warm = Campaign(cache=ResultCache(tmp_path / "cache"), run_id="warm",
                    journal_dir=tmp_path / "journals").run(scenarios)
    assert warm.cache_hits == len(scenarios)
    assert calls["hash"] == len(scenarios)
    outcomes = CampaignJournal.open("warm", tmp_path / "journals").state().outcomes
    for scenario, result in warm.pairs():
        record = outcomes[scenario.key()]
        assert record["status"] == "cached"
        assert record["content_hash"] == result_content_hash(result)
