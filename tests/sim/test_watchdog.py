"""Unit tests for the runtime invariant watchdog (``Watchdog(sim, mode)``)."""

import pytest

from repro.errors import WatchdogError
from repro.sim import Simulator, Watchdog, WatchdogViolation
from repro.sim.events import _MIN_COMPACT


def test_simulator_owns_no_watchdog():
    """A bare simulator carries no observer: the run builds one."""
    sim = Simulator()
    assert not hasattr(sim, "watchdog")
    # Building a watchdog schedules nothing until start().
    Watchdog(sim, "warn")
    assert len(sim.events) == 0


def test_constructor_rejects_bad_mode_and_interval():
    sim = Simulator()
    for mode in ("off", "loud"):
        with pytest.raises(WatchdogError, match="mode"):
            Watchdog(sim, mode)
    with pytest.raises(WatchdogError, match="interval"):
        Watchdog(sim, "warn", interval=0.0)


def test_warn_mode_records_and_warns_with_cap():
    sim = Simulator()
    watchdog = Watchdog(sim, "warn")
    watchdog.max_warnings = 2
    with pytest.warns(RuntimeWarning, match="custom_check"):
        for i in range(5):
            watchdog.report("custom_check", f"violation {i}", i=i)
    assert len(watchdog.violations) == 5          # all recorded ...
    assert watchdog._warned == 2                  # ... console capped
    v = watchdog.violations[0]
    assert isinstance(v, WatchdogViolation)
    assert v.check == "custom_check"
    assert v.data == {"i": 0}
    assert v.to_dict()["detail"] == "violation 0"


def test_raise_mode_raises_on_first_report():
    watchdog = Watchdog(Simulator(), "raise")
    with pytest.raises(WatchdogError, match="boom") as info:
        watchdog.report("custom_check", "boom", n=1)
    assert info.value.violation.check == "custom_check"
    assert info.value.violations[0].data == {"n": 1}


def test_heartbeat_compensates_step_counter():
    """Enabling the watchdog must not change ``sim_events`` bookkeeping."""

    def build(mode):
        sim = Simulator(seed=7)
        n = {"fired": 0}

        def tick():
            n["fired"] += 1
            if n["fired"] < 50:
                sim.schedule(0.1, tick)

        sim.schedule(0.1, tick)
        if mode is not None:
            Watchdog(sim, mode, interval=0.5).start()
        sim.run()
        return sim._steps, n["fired"]

    assert build(None) == build("warn")


def test_heartbeat_stops_when_queue_drains():
    """The heartbeat never keeps an otherwise-finished sim alive."""
    sim = Simulator()
    Watchdog(sim, "warn", interval=0.25).start()
    sim.schedule(1.0, lambda: None)
    end = sim.run()
    # One more beat after the last real event notices the empty queue
    # and stops rescheduling.
    assert end <= 1.0 + 2 * 0.25
    assert len(sim.events) == 0


def test_custom_check_runs_from_heartbeat():
    sim = Simulator()
    watchdog = Watchdog(sim, "warn", interval=0.5)
    watchdog.register("always_sad", lambda: [("unhappy", {"k": 1})])
    watchdog.start()
    sim.schedule(2.0, lambda: None)
    with pytest.warns(RuntimeWarning, match="always_sad"):
        sim.run()
    assert any(v.check == "always_sad" for v in watchdog.violations)


def test_final_only_check_runs_at_finalize_only():
    sim = Simulator()
    watchdog = Watchdog(sim, "warn", interval=0.5)
    calls = {"n": 0}

    def final_check():
        calls["n"] += 1
        return []

    watchdog.register("quiescence", final_check, final_only=True)
    watchdog.start()
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert calls["n"] == 0
    watchdog.finalize()
    assert calls["n"] == 1
    watchdog.finalize()                           # idempotent
    assert calls["n"] == 1


def test_stall_detection_fires_on_flat_probe():
    sim = Simulator()
    watchdog = Watchdog(
        sim, "warn", interval=0.5, stall_time=2.0, stall_events=10
    )
    watchdog.set_progress_probe(lambda: 0.0)      # never any progress
    watchdog.start()

    spin = {"n": 0}

    def tick():
        spin["n"] += 1
        if spin["n"] < 200:
            sim.schedule(0.05, tick)

    sim.schedule(0.05, tick)
    with pytest.warns(RuntimeWarning, match="no progress"):
        sim.run()
    stalls = [v for v in watchdog.violations if v.check == "stall"]
    assert stalls
    assert stalls[0].data["idle_seconds"] >= 2.0
    assert stalls[0].data["idle_events"] >= 10


def test_stall_detection_resets_on_progress():
    sim = Simulator()
    progress = {"v": 0.0}
    watchdog = Watchdog(
        sim, "warn", interval=0.5, stall_time=2.0, stall_events=10
    )
    watchdog.set_progress_probe(lambda: progress["v"])
    watchdog.start()

    spin = {"n": 0}

    def tick():
        spin["n"] += 1
        progress["v"] += 1.0                      # always making progress
        if spin["n"] < 200:
            sim.schedule(0.05, tick)

    sim.schedule(0.05, tick)
    sim.run()
    assert not any(v.check == "stall" for v in watchdog.violations)


def test_event_heap_check_catches_bookkeeping_skew():
    sim = Simulator()
    watchdog = Watchdog(sim, "warn")
    sim.schedule(1.0, lambda: None)
    sim.events._tombstones += _MIN_COMPACT + 5    # seeded corruption
    with pytest.warns(RuntimeWarning, match="bookkeeping skew"):
        violations = watchdog.finalize()
    assert any(v.check == "event_heap" for v in violations)


def _scraped_counters(watchdog):
    """The registry counters a run-end scrape reads off ``watchdog``."""
    from repro.cluster import Cluster
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.scrape import scrape_cluster

    registry = MetricsRegistry()
    scrape_cluster(registry, Cluster(watchdog.sim, n_hosts=2),
                   watchdog=watchdog)
    return registry.snapshot()["counters"]


def test_finalize_materializes_metrics_zero():
    watchdog = Watchdog(Simulator(), "warn")
    watchdog.finalize()
    assert _scraped_counters(watchdog)["watchdog_violations_total"] == 0


def test_violation_counter_increments_per_check():
    watchdog = Watchdog(Simulator(), "warn")
    with pytest.warns(RuntimeWarning):
        watchdog.report("leaky", "drip")
        watchdog.report("leaky", "drip again")
    counters = _scraped_counters(watchdog)
    assert counters["watchdog_violations{check=leaky}"] == 2
    assert counters["watchdog_violations_total"] == 2


def test_watchdog_reexported_from_sim_package():
    from repro.sim import watchdog

    assert Watchdog is watchdog.Watchdog
