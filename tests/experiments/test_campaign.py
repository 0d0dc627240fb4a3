"""Tests for the Campaign layer: executors, cache, progress, determinism."""

import json

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
    """Count result content hashes, builds of the hash layout
    (``export._hashed_dict``, which every hash and every cache put
    makes) and ``Scenario.to_dict`` calls (per scenario object) made
    while a campaign runs."""
    from collections import Counter

    from repro.experiments import campaign as campaign_mod
    from repro.experiments import export as export_mod

    counts = {"hash": 0, "hashed_dict": 0, "to_dict": Counter()}
    content_hash = campaign_mod.result_content_hash
    hashed_dict = export_mod._hashed_dict
    to_dict = Scenario.to_dict

    def counting_hash(result):
        counts["hash"] += 1
        return content_hash(result)

    def counting_hashed_dict(result):
        counts["hashed_dict"] += 1
        return hashed_dict(result)

    def counting_to_dict(self):
        counts["to_dict"][id(self)] += 1
        return to_dict(self)

    monkeypatch.setattr(campaign_mod, "result_content_hash", counting_hash)
    monkeypatch.setattr(export_mod, "_hashed_dict", counting_hashed_dict)
    monkeypatch.setattr(Scenario, "to_dict", counting_to_dict)
    return counts


def test_unjournaled_runs_hash_no_results(tmp_path, calls):
    cold = Campaign(cache=ResultCache(tmp_path)).run(_scenarios())
    assert cold.executed == 2
    assert calls["hash"] == 0
    assert calls["hashed_dict"] == 2  # one per put

    calls["to_dict"].clear()
    fresh = _scenarios()  # as a new process builds them: no key memo yet
    warm = Campaign(cache=ResultCache(tmp_path)).run(fresh + fresh[:1])
    assert warm.cache_hits == 2
    assert calls["hash"] == 0 and calls["hashed_dict"] == 2
    assert sorted(calls["to_dict"].values()) == [1, 1]


def test_journaled_runs_read_stored_hashes(tmp_path, calls):
    """A journaled cold run builds the hash layout once per executed
    scenario, at its cache put; a journaled warm run and a resume of the
    finished run journal the hashes their entries store and build it
    not at all.  Every outcome record carries the cold result's hash."""
    from repro.experiments.export import result_content_hash
    from repro.experiments.journal import CampaignJournal

    scenarios = _scenarios()
    cache, journals = tmp_path / "cache", tmp_path / "journals"
    cold = Campaign(cache=ResultCache(cache), run_id="cold",
                    journal_dir=journals).run(scenarios)
    assert cold.executed == len(scenarios)
    assert (calls["hash"], calls["hashed_dict"]) == (0, len(scenarios))

    warm = Campaign(cache=ResultCache(cache), run_id="warm",
                    journal_dir=journals).run(scenarios)
    resumed = Campaign(cache=ResultCache(cache), resume="cold",
                       journal_dir=journals).run()
    assert warm.cache_hits == resumed.cache_hits == len(scenarios)
    assert (calls["hash"], calls["hashed_dict"]) == (0, len(scenarios))

    expected = {s.key(): result_content_hash(r) for s, r in cold.pairs()}
    statuses = []
    for run_id in ("cold", "warm"):
        path = CampaignJournal.open(run_id, journals).path
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "outcome":
                assert record["content_hash"] == expected[record["key"]]
                statuses.append(record["status"])
    # the cold journal holds the cold outcomes, then the resumed ones
    n = len(scenarios)
    assert statuses == ["ok"] * n + ["cached"] * (2 * n)


# -- what a campaign records, pinned ----------------------------------------

#: Content keys and result content hashes of the pinned plan's scenarios.
PIN_KEYS = {
    "hit": "deebcea3eb026e044f0744d302cecb4c3e002390f79002a04703bc807f674c7c",
    "run": "2a31fab6dae839f6aad95a3d270b4fdacd10bfc0a3e72bfcd5f7a95c1bdeb154",
    "bad": "4d683513cf257b1ffb4ec7dee62562bdb55873862e2579b4007edda8768cb958",
}
PIN_HASHES = {
    "hit": "86d51b5d2e8484b404b4f3421c04806c4b480d5821a14136bb0760a0efce3ada",
    "run": "4945534c6549d134ba643755945bf76c317015a6e3bb188e94b4eb55ec66b058",
}
BAD_DETAIL = ("ConfigError: tl_controller variant must be 'static' or "
              "'adaptive', got 'magic'")


def _pin_plan():
    """A cache hit, an executed scenario and one that always fails, each
    followed later by a repeat of its key."""
    hit = Scenario(config=MICRO).with_tags(role="hit")
    run = Scenario(config=MICRO.replace(policy=Policy.TLS_ONE)).with_tags(role="run")
    bad = (Scenario(config=MICRO).with_hook("tl_controller", variant="magic")
           .with_tags(role="bad"))
    return hit, [hit, run, bad, run, hit, bad]


def _pinned_journal(ok_first):
    """The journal records of the pinned plan, without ts and worker."""
    roles = ["hit", "run", "bad", "run", "hit", "bad"]
    ok = {"kind": "outcome", "index": 1, "key": PIN_KEYS["run"], "status": "ok",
          "cached": False, "attempts": 1, "content_hash": PIN_HASHES["run"]}
    error = {"kind": "outcome", "index": 2, "key": PIN_KEYS["bad"],
             "status": "error", "cached": False, "attempts": 1,
             "detail": BAD_DETAIL}
    return (
        [{"kind": "campaign_start", "run_id": "pin", "schema": 1, "total": 6}]
        + [{"kind": "scenario", "index": i, "key": PIN_KEYS[role],
            "label": f"role={role}"} for i, role in enumerate(roles)]
        + [{"kind": "outcome", "index": 0, "key": PIN_KEYS["hit"],
            "status": "cached", "cached": True, "attempts": 0,
            "content_hash": PIN_HASHES["hit"]},
           {"kind": "submit", "index": 1, "key": PIN_KEYS["run"], "attempt": 1},
           {"kind": "submit", "index": 2, "key": PIN_KEYS["bad"], "attempt": 1}]
        + ([ok, error] if ok_first else [error, ok])
        + [{"kind": "campaign_end", "executed": 2, "cached": 1, "failed": 2}]
    )


def _pinned_events(ok_first):
    """``(status, index, completed)`` of each progress event."""
    settled = ([("done", 1, 2), ("failed", 2, 3)] if ok_first
               else [("failed", 2, 2), ("done", 1, 3)])
    return ([("cached", 0, 1), ("running", 1, 1), ("running", 2, 1)]
            + settled + [("done", 3, 4), ("done", 4, 5), ("failed", 5, 6)])


PIN_COUNTERS = {
    "campaign_backoff_seconds_total": 0.0,
    "campaign_cache_corrupt_total": 0.0,
    "campaign_cache_hits_total": 1.0,
    "campaign_retries_total": 0.0,
    "campaign_scenarios_total": 0.0,
    "campaign_scenarios_total{status=cached}": 1.0,
    "campaign_scenarios_total{status=error}": 1.0,
    "campaign_scenarios_total{status=ok}": 1.0,
    "campaign_watchdog_violations_total": 0.0,
}


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_campaign_records_are_pinned(tmp_path, executor):
    """Journal records, progress events and counters of a report-mode
    campaign over a cache hit, an executed scenario, a failing one and
    repeats of each, then of a raise-mode rerun.  The pool may settle the
    two executed scenarios in either order; nothing else may vary."""
    from repro.errors import CampaignError, ConfigError

    def make():
        return (SerialExecutor() if executor == "serial"
                else ParallelExecutor(max_workers=2))

    hit, plan = _pin_plan()
    Campaign(cache=ResultCache(tmp_path / "cache")).run([hit])
    events = []
    res = Campaign(
        executor=make(), cache=ResultCache(tmp_path / "cache"), run_id="pin",
        journal_dir=tmp_path / "journals", on_failure="report",
        progress=events.append,
    ).run(plan)

    records = []
    for line in (tmp_path / "journals" / "pin.jsonl").read_text().splitlines():
        record = json.loads(line)
        for volatile in ("ts", "worker", "scenario"):
            record.pop(volatile, None)
        records.append(record)
    ok_first = executor == "serial" or records[10]["status"] == "ok"
    assert records == _pinned_journal(ok_first)
    assert ([(e.status, e.index, e.completed) for e in events]
            == _pinned_events(ok_first))
    assert all(e.total == 6 for e in events)
    assert res.campaign_metrics["counters"] == PIN_COUNTERS
    assert [(f.index, f.kind, f.detail, f.attempts) for f in res.failures] == [
        (2, "error", BAD_DETAIL, 1), (5, "error", BAD_DETAIL, 1)]
    assert res.cache_hits == 1 and res.executed == 2
    assert res.results[3] is res.results[1] and res.results[4] is res.results[0]

    # A raise-mode rerun: "hit" and "run" are cached now, "bad" raises and
    # leaves the counters as they stood at that point.
    campaign = Campaign(executor=make(), cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(ConfigError if executor == "serial" else CampaignError,
                       match="variant must be"):
        campaign.run(plan)
    raised = dict(PIN_COUNTERS)
    del raised["campaign_scenarios_total{status=ok}"]
    raised["campaign_cache_hits_total"] = 2.0
    raised["campaign_scenarios_total{status=cached}"] = 2.0
    assert campaign.metrics.snapshot()["counters"] == raised
