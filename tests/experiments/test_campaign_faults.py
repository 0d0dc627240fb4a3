"""Crash-tolerant Campaign tests: timeouts, dead workers, cache races."""

import threading
import time

import pytest

from repro.errors import CampaignError, ConfigError
from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ParallelExecutor,
    ResultCache,
    Scenario,
)
from repro.experiments.campaign import CHAOS_KILL_ENV
from repro.experiments.runtime import execute_scenario
from repro.faults import FaultPlan, PSCrash

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)

#: Big enough that the simulation cannot finish inside any timeout used
#: below; the wall-clock guard must cut it short.
GLACIAL = MICRO.replace(iterations=200_000, seed=11)


def test_campaign_survives_timeout_and_worker_death(monkeypatch):
    """The acceptance scenario: one hung scenario, one killed worker —
    healthy scenarios keep their results and the report names both."""
    monkeypatch.setenv(CHAOS_KILL_ENV, "always")
    healthy = Scenario(config=MICRO).with_tags(role="healthy")
    slow = Scenario(config=GLACIAL).with_tags(slow="1")
    doomed = Scenario(config=MICRO.replace(seed=2)).with_tags(chaos="kill")
    campaign = Campaign(
        executor=ParallelExecutor(max_workers=2),
        scenario_timeout=2.0,
        max_attempts=2,
        on_failure="report",
    )
    res = campaign.run([healthy, slow, doomed])
    assert res.results[0] is not None          # the healthy run survived
    assert res.results[1] is None and res.results[2] is None
    kinds = {f.index: f.kind for f in res.failures}
    assert kinds == {1: "timeout", 2: "crashed"}
    crashed = next(f for f in res.failures if f.kind == "crashed")
    assert crashed.attempts == 2               # it was retried, then written off
    report = res.failure_report()
    assert "2 of 3 scenarios failed" in report
    assert "timeout" in report and "crashed" in report
    assert "slow=1" in report and "chaos=kill" in report


def test_chaos_kill_once_recovers_on_retry(tmp_path, monkeypatch):
    """Kill-once semantics: the retry finds the token consumed and succeeds."""
    token = tmp_path / "kill-token"
    token.write_text("armed")
    monkeypatch.setenv(CHAOS_KILL_ENV, str(token))
    doomed = Scenario(config=MICRO.replace(seed=3)).with_tags(chaos="kill")
    campaign = Campaign(executor=ParallelExecutor(max_workers=2),
                        max_attempts=2, on_failure="report")
    res = campaign.run([doomed])
    assert not res.failures
    assert res.results[0] is not None
    assert not token.exists()                  # first attempt consumed it


def test_raise_mode_aborts_on_timeout():
    with pytest.raises(CampaignError, match="timeout"):
        Campaign(scenario_timeout=1.0).run([Scenario(config=GLACIAL)])


def test_duplicates_of_a_failed_scenario_fail_together():
    slow = Scenario(config=GLACIAL)
    res = Campaign(scenario_timeout=1.0, on_failure="report").run([slow, slow])
    assert res.results == [None, None]
    assert sorted(f.index for f in res.failures) == [0, 1]
    assert all(f.kind == "timeout" for f in res.failures)


@pytest.mark.parametrize("kwargs", [
    {"scenario_timeout": 0.0},
    {"max_attempts": 0},
    {"on_failure": "explode"},
])
def test_campaign_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        Campaign(**kwargs)


# -- ResultCache hardening ---------------------------------------------------


def test_cache_concurrent_writers_never_corrupt(tmp_path):
    """Hammer one cache entry from several threads while reading it:
    every read must see a complete entry (atomic tmp + rename)."""
    scenario = Scenario(config=MICRO)
    result = execute_scenario(scenario)
    cache = ResultCache(tmp_path)
    cache.put(scenario, result)
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            cache.put(scenario, result)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        good_reads = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            got = ResultCache(tmp_path).get(scenario)
            assert got is not None, "reader saw a missing/corrupt entry"
            assert got.jcts == result.jcts
            good_reads += 1
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert good_reads > 0
    assert not list(tmp_path.glob("*.tmp"))    # no staging debris left


def test_cache_max_entries_evicts_oldest(tmp_path):
    result = execute_scenario(Scenario(config=MICRO))
    cache = ResultCache(tmp_path, max_entries=2)
    scenarios = [Scenario(config=MICRO.replace(seed=s)) for s in range(4)]
    for scenario in scenarios:
        cache.put(scenario, result)
        time.sleep(0.01)                       # distinct mtimes for eviction
    assert len(cache) == 2
    assert ResultCache(tmp_path).get(scenarios[-1]) is not None
    assert ResultCache(tmp_path).get(scenarios[0]) is None


def test_cache_purge_and_clear(tmp_path):
    result = execute_scenario(Scenario(config=MICRO))
    cache = ResultCache(tmp_path)
    for s in range(3):
        cache.put(Scenario(config=MICRO.replace(seed=s)), result)
    assert cache.purge(keep=1) == 2
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    with pytest.raises(ConfigError):
        cache.purge(keep=-1)
    with pytest.raises(ConfigError):
        ResultCache(tmp_path, max_entries=0)


def test_faulted_scenario_never_served_clean_cache_entry(tmp_path):
    """A fault plan is part of the content key: a faulted run must miss
    the clean run's cache entry (and vice versa)."""
    clean = Scenario(config=MICRO)
    Campaign(cache=ResultCache(tmp_path)).run([clean])
    faulted = Scenario(
        config=MICRO,
        faults=FaultPlan(
            faults=(PSCrash(job="job00", at=0.2, recover_after=0.2),),
        ),
    )
    warm = Campaign(cache=ResultCache(tmp_path)).run([faulted])
    assert warm.cache_hits == 0 and warm.executed == 1
    assert warm.results[0].fault_events
    rewarm = Campaign(cache=ResultCache(tmp_path)).run([clean, faulted])
    assert rewarm.cache_hits == 2 and rewarm.executed == 0


def test_cache_quarantines_corrupt_entry(tmp_path):
    """A bit-rotted entry is renamed aside (``.corrupt``), counted, and
    the scenario re-runs cleanly into the vacated slot."""
    scenario = Scenario(config=MICRO)
    cache = ResultCache(tmp_path)
    campaign = Campaign(cache=cache)
    first = campaign.run([scenario])
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ definitely not a result")

    rerun = campaign.run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert cache.corrupt == 1
    quarantined = list(tmp_path.glob("*.json.corrupt"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text().startswith("{ definitely")
    assert rerun.campaign_metrics["counters"]["campaign_cache_corrupt_total"] == 1
    # The slot was rebuilt: a third run is a plain hit again.
    assert campaign.run([scenario]).cache_hits == 1
    assert rerun.results[0].jcts == first.results[0].jcts


def test_cache_truncated_entry_counts_as_miss_and_quarantine(tmp_path):
    """The non-atomic failure mode (truncation outside our protocol)."""
    scenario = Scenario(config=MICRO)
    cache = ResultCache(tmp_path)
    Campaign(cache=cache).run([scenario])
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(entry.read_text()[:40])   # torn mid-file
    assert cache.get(scenario) is None
    assert cache.corrupt == 1
    assert len(cache) == 0                     # .corrupt leaves the namespace


# -- the threading.Timer wall-clock guard -------------------------------------


def test_timer_timeout_cuts_glacial_scenario():
    """The ``threading.Timer`` guard cuts a run that exceeds its budget."""
    from repro.experiments.campaign import (
        _ScenarioTimeout,
        _run_with_wall_timeout,
    )

    start = time.monotonic()
    # The injected exception may land bare or wrapped in the kernel's
    # ProcessError, depending on which bytecode boundary it hits; the
    # guard unwinds both into one bare, budget-naming _ScenarioTimeout.
    with pytest.raises(_ScenarioTimeout, match="wall-clock budget"):
        _run_with_wall_timeout(Scenario(config=GLACIAL), 1.0)
    assert time.monotonic() - start < 30.0


def test_timer_timeout_returns_result_when_fast_enough():
    from repro.experiments.campaign import _run_with_wall_timeout

    result = _run_with_wall_timeout(Scenario(config=MICRO), 60.0)
    assert result.makespan > 0


def test_wall_timeout_off_main_thread_uses_timer_fallback():
    """The guard holds off the main thread too."""
    from repro.experiments.campaign import (
        _ScenarioTimeout,
        _run_with_wall_timeout,
    )

    box = {}

    def worker():
        try:
            _run_with_wall_timeout(Scenario(config=GLACIAL), 1.0)
        except BaseException as exc:  # noqa: BLE001 - capturing for assert
            box["exc"] = exc

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=60.0)
    assert not t.is_alive()
    assert isinstance(box["exc"], _ScenarioTimeout)


# -- retry policy / backoff ---------------------------------------------------


def test_retry_policy_delays():
    from repro.experiments.campaign import RetryPolicy

    policy = RetryPolicy(max_attempts=4, base_delay=0.5, factor=2.0,
                         max_delay=1.5)
    assert policy.delay(0) == 0.0
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 1.5                  # capped
    assert policy.total_backoff(1) == 0.0          # first attempt: no sleep
    assert policy.total_backoff(3) == 1.5          # 0.5 + 1.0
    with pytest.raises(ConfigError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ConfigError):
        RetryPolicy(factor=0.5)


def test_retried_crash_pays_backoff_and_counts(monkeypatch):
    """Kill-always chaos: the quarantined scenario dies on attempt 1,
    the campaign sleeps the policy's delay, attempt 2 dies too — the
    write-off and the backoff paid are both visible in the counters.
    (Only quarantine attempts are charged: the original pool-breaking
    crash cannot be attributed to a scenario, and innocent survivors of
    a broken pool must not be billed retries.)"""
    from repro.experiments.campaign import RetryPolicy

    monkeypatch.setenv(CHAOS_KILL_ENV, "always")
    doomed = Scenario(config=MICRO.replace(seed=9)).with_tags(chaos="kill")
    policy = RetryPolicy(max_attempts=2, base_delay=0.2, factor=2.0)
    campaign = Campaign(executor=ParallelExecutor(max_workers=2),
                        retry=policy, on_failure="report")
    start = time.monotonic()
    res = campaign.run([doomed])
    elapsed = time.monotonic() - start
    assert [f.kind for f in res.failures] == ["crashed"]
    assert res.failures[0].attempts == 2
    counters = res.campaign_metrics["counters"]
    assert counters["campaign_retries_total"] == 1
    assert counters["campaign_backoff_seconds_total"] == pytest.approx(0.2)
    assert elapsed >= 0.2                          # the backoff was real


def test_kill_once_recovery_is_not_billed_a_retry(tmp_path, monkeypatch):
    """The flip side: a scenario whose worker died once with the pool but
    whose quarantine run succeeds immediately is charged one attempt and
    zero retries — retry counters measure charged quarantine attempts."""
    token = tmp_path / "kill-token"
    token.write_text("armed")
    monkeypatch.setenv(CHAOS_KILL_ENV, str(token))
    doomed = Scenario(config=MICRO.replace(seed=9)).with_tags(chaos="kill")
    campaign = Campaign(executor=ParallelExecutor(max_workers=2),
                        max_attempts=2, on_failure="report")
    res = campaign.run([doomed])
    assert not res.failures and res.results[0] is not None
    assert not token.exists()
    counters = res.campaign_metrics["counters"]
    assert counters["campaign_retries_total"] == 0
    assert counters["campaign_backoff_seconds_total"] == 0
