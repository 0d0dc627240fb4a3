"""End-to-end watchdog tests over the experiment runtime.

Three contracts: (1) a clean determinism scenario yields ZERO violations
and its pinned result content hash is unchanged by watching it; (2) a
seeded byte leak is caught as a structured violation (raise mode fails
the run, warn mode records it on the result); (3) a seeded livelock
trips the stall detector.
"""

import pytest

from repro.errors import ConfigError, WatchdogError
from repro.experiments import Campaign, ExperimentConfig, Policy, Scenario
from repro.experiments.export import result_content_hash
from repro.experiments.runtime import (
    WATCHDOG_ENV,
    execute_scenario,
    materialize,
)
from repro.net.packet import Segment
from repro.sim import Watchdog

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def _leak_one_segment(cluster):
    """Seed a byte leak: h00's transport opens the receive state of its
    first arriving segment but never counts that segment's bytes, so the
    message stays a stuck partial receive."""
    nic = cluster.host("h00").nic
    receive = nic.on_receive
    leaked = False

    def leak_first(seg):
        nonlocal leaked
        if not leaked:
            leaked = True
            seg = Segment(seg.message, seg.index, 0, seg.is_last)
        receive(seg)

    nic.on_receive = leak_first


@pytest.mark.parametrize("policy", [Policy.FIFO, Policy.TLS_ONE])
def test_clean_run_has_zero_violations_and_same_hash(policy):
    scenario = Scenario(config=MICRO.replace(policy=policy))
    plain = execute_scenario(scenario)
    for mode in ("warn", "raise"):
        watched = execute_scenario(scenario, watchdog=mode)
        assert watched.watchdog_violations == []
        assert watched.sim_events == plain.sim_events
        assert result_content_hash(watched) == result_content_hash(plain)


def test_env_fallback_enables_watchdog(monkeypatch):
    monkeypatch.setenv(WATCHDOG_ENV, "raise")
    result = execute_scenario(Scenario(config=MICRO))
    assert result.watchdog_violations == []       # raise mode ran clean
    monkeypatch.delenv(WATCHDOG_ENV)


def test_seeded_leak_raises_in_raise_mode():
    runtime = materialize(Scenario(config=MICRO), watchdog="raise")
    _leak_one_segment(runtime.cluster)
    with pytest.raises(WatchdogError, match="leaked") as info:
        runtime.run()
    violation = info.value.violation
    assert violation.check == "flow_leak"
    assert violation.data["host"] == "h00"


def test_seeded_leak_recorded_in_warn_mode():
    """Warn mode still records the structured violation; the run itself
    fails on the downstream symptom (the starved job never finishes)."""
    runtime = materialize(Scenario(config=MICRO), watchdog="warn")
    _leak_one_segment(runtime.cluster)
    with pytest.warns(RuntimeWarning, match="leaked"):
        with pytest.raises(ConfigError, match="did not finish"):
            runtime.run()
    leaks = [v for v in runtime.watchdog.violations
             if v.check == "flow_leak"]
    assert leaks
    assert leaks[0].data["host"] == "h00"         # structured blame
    assert leaks[0].data["received"] < leaks[0].data["size"]


def test_seeded_stall_raises_in_raise_mode():
    """A flat progress probe + live event queue is a livelock: the stall
    detector must kill the run instead of spinning forever."""
    runtime = materialize(Scenario(config=MICRO))
    assert runtime.watchdog is None
    watchdog = runtime.watchdog = Watchdog(
        runtime.sim, "raise", interval=0.05, stall_time=0.2, stall_events=5
    )
    watchdog.set_progress_probe(lambda: 0.0)      # flat: never any progress
    watchdog.start()
    with pytest.raises(WatchdogError, match="no progress"):
        runtime.run()


def test_campaign_aggregates_watchdog_counters(tmp_path):
    """The campaign pass-through: every scenario watched, per-run
    violation lists surfaced, campaign-level counter materialized."""
    campaign = Campaign(watchdog="warn", observe_metrics=True)
    result = campaign.run([Scenario(config=MICRO)])
    assert result.results[0].watchdog_violations == []
    counters = result.campaign_metrics["counters"]
    assert counters["campaign_watchdog_violations_total"] == 0
    # The per-run registry exported the explicit zero too.
    per_run = result.results[0].metrics_snapshot["counters"]
    assert per_run["watchdog_violations_total"] == 0


def test_watchdog_off_string_means_off():
    for mode in (None, "off"):
        assert materialize(Scenario(config=MICRO), watchdog=mode).watchdog is None
    result = execute_scenario(Scenario(config=MICRO), watchdog="off")
    assert result.watchdog_violations == []
