"""Crash-tolerant Campaign tests: timeouts, dead workers, cache races."""

import base64
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import threading
import time
from array import array
from pathlib import Path

import pytest

from repro.errors import CampaignError, ConfigError
from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ParallelExecutor,
    ResultCache,
    Scenario,
)
from repro.experiments.campaign import CHAOS_KILL_ENV, RunRequest
from repro.experiments.export import (
    FULL_SCHEMA_VERSION,
    result_content_hash,
    seal_entry,
    unseal_entry,
)
from repro.experiments.runtime import execute_scenario
from repro.faults import FaultPlan, PSCrash
from tests.experiments import hash_oracle

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)

#: ``ResultCache.put`` of ``Scenario(ExperimentConfig.tiny())`` by release
#: 1.10.0: a full-result schema-4 JSON document.
SCHEMA4_TINY = Path(__file__).parent / "fixtures" / "schema4-tiny.json"

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
    entry.write_bytes(entry.read_bytes()[:40])   # torn mid-file
    assert cache.get(scenario) is None
    assert cache.corrupt == 1
    assert len(cache) == 0                     # .corrupt leaves the namespace


@pytest.mark.parametrize("payload", [
    '{"result": []}', '{"result": 5}', '{"result": null}', "[]", '"x"',
])
def test_cache_entry_of_wrong_shape_is_quarantined_miss(tmp_path, payload):
    """Valid JSON of the wrong shape is unreadable too: it counts as a
    miss and is quarantined, and the campaign re-runs the scenario."""
    scenario = Scenario(config=MICRO)
    cache = ResultCache(tmp_path)
    first = Campaign(cache=cache).run([scenario])
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(payload)

    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert cache.corrupt == 1
    assert [p.read_text() for p in tmp_path.glob("*.json.corrupt")] == [payload]
    assert rerun.results[0].jcts == first.results[0].jcts


def test_stale_schema_entry_is_plain_miss_and_overwritten(tmp_path):
    """An entry another build wrote (here schema 2, decimal floats) is
    readable, just not ours: a miss, not corruption, and the re-run's
    put replaces it in place."""
    scenario = Scenario(config=MICRO)
    result = execute_scenario(scenario)
    cache = ResultCache(tmp_path)
    entry = cache.put(scenario, result)
    entry.write_text(json.dumps({
        "scenario": scenario.to_dict(),
        "result": hash_oracle.result_to_full_dict(result),
    }))

    assert cache.get(scenario) is None
    assert cache.corrupt == 0
    assert list(tmp_path.glob("*.corrupt")) == []
    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert rerun.campaign_metrics["counters"]["campaign_cache_corrupt_total"] == 0
    assert cache.corrupt == 0 and list(tmp_path.glob("*.corrupt")) == []
    assert unseal_entry(entry.read_bytes())["full_schema_version"] == FULL_SCHEMA_VERSION
    assert Campaign(cache=cache).run([scenario]).cache_hits == 1


def _schema3_entry(scenario, result):
    """An entry as the previous build wrote it: full-result schema 3,
    one base64 block per barrier-wait list and per series axis, and no
    checksum."""
    def pack(values):
        return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()

    data = hash_oracle.result_to_full_dict(result)
    data["full_schema_version"] = 3
    for m in data["metrics"].values():
        waits = m["barrier_waits"]
        m["barrier_waits"] = {
            "iterations": [int(i) for i in waits],
            "counts": [len(w) for w in waits.values()],
            "samples": pack([x for w in waits.values() for x in w]),
        }
    for host in data["samplers"].values():
        for kind, series in host.items():
            host[kind] = {axis: pack(v) for axis, v in series.items()}
    data["wall_seconds"] = result.wall_seconds
    data["tc_reconfigurations"] = result.tc_reconfigurations
    return json.dumps({"scenario": scenario.to_dict(), "result": data})


def test_schema3_entry_is_plain_miss_and_overwritten(tmp_path):
    """The layout the previous build wrote is not ours: a plain miss,
    not corruption, overwritten in place by the re-run's put."""
    scenario = Scenario(config=MICRO.replace(sample_hosts=True, sample_interval=0.05))
    result = execute_scenario(scenario)
    cache = ResultCache(tmp_path)
    entry = cache.put(scenario, result)
    entry.write_text(_schema3_entry(scenario, result))

    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert rerun.campaign_metrics["counters"]["campaign_cache_corrupt_total"] == 0
    assert list(tmp_path.glob("*.corrupt")) == []
    assert unseal_entry(entry.read_bytes())["full_schema_version"] == FULL_SCHEMA_VERSION
    hit = ResultCache(tmp_path).get(scenario)
    assert result_content_hash(hit) == result_content_hash(result)


def test_schema4_entry_from_1_10_is_plain_miss_and_replaced(tmp_path):
    """An entry 1.10.0 wrote is a stale miss, neither quarantined nor
    counted corrupt; the re-run leaves one schema-5 file for the key,
    with the content hash 1.10.0 stored."""
    scenario = Scenario(config=ExperimentConfig.tiny())
    cache = ResultCache(tmp_path)
    entry = tmp_path / f"{scenario.key()}.json"
    shutil.copy(SCHEMA4_TINY, entry)
    assert len(cache) == 1

    assert cache.get(scenario) is None
    assert cache.corrupt == 0 and entry.exists()
    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert rerun.campaign_metrics["counters"]["campaign_cache_corrupt_total"] == 0
    assert list(tmp_path.iterdir()) == [entry]
    assert len(cache) == 1
    stored = json.loads(SCHEMA4_TINY.read_bytes())["result"]["content_hash"]
    assert unseal_entry(entry.read_bytes())["content_hash"] == stored
    assert result_content_hash(rerun.results[0]) == stored
    assert Campaign(cache=cache).run([scenario]).cache_hits == 1


def _in_header(raw):
    """The last digit of the event count: still JSON, another number."""
    digit = re.search(rb'"sim_events": ?[0-9]*([0-9])[,}]', raw).start(1)
    return raw[:digit] + b"%d" % ((raw[digit] - ord("0") + 1) % 10) + raw[digit + 1:]


def _in_block(raw):
    """One byte of the float64 block: still a float, another one."""
    header_end = raw.index(b"\n")
    at = header_end + 1 + json.loads(raw[:header_end])["ints"] + 5
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


def _in_checksum(raw):
    return raw[:-1] + bytes([raw[-1] ^ 0x01])


def _truncated(raw):
    return raw[:len(raw) // 2]


@pytest.mark.parametrize("damage", [_in_header, _in_block, _in_checksum, _truncated])
def test_damaged_entry_is_quarantined_and_rerun(tmp_path, damage):
    """One changed byte anywhere in an entry, or a torn one, is never
    served: the entry fails its checksum, is quarantined and counted,
    and the scenario re-runs to its original content hash."""
    scenario = Scenario(config=MICRO.replace(sample_hosts=True, sample_interval=0.05))
    cache = ResultCache(tmp_path)
    first = Campaign(cache=cache).run([scenario])
    entry = next(tmp_path.glob("*.json"))
    raw = entry.read_bytes()
    damaged = damage(raw)
    assert damaged != raw
    entry.write_bytes(damaged)

    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert rerun.campaign_metrics["counters"]["campaign_cache_corrupt_total"] == 1
    assert [p.read_bytes() for p in tmp_path.glob("*.json.corrupt")] == [damaged]
    assert result_content_hash(rerun.results[0]) == result_content_hash(first.results[0])


def _edit_ints(data, edit):
    """Apply ``edit(ints, counts_at, series_at)`` to the int64 block:
    ``counts_at`` indexes job00's first barrier sample count and
    ``series_at`` the first host's cpu times length."""
    ints = array("q", data["ints"]).tolist()
    n_steps = len(data["metrics"]["job00"]["local_steps"])
    counts_at = n_steps + 1 + ints[n_steps]
    edit(ints, counts_at, len(ints) - 6 * len(data["samplers"]))
    data["ints"] = array("q", ints).tobytes()


def _block_boundary_moved(data):
    # The int64 block swallows the first float64.
    data["ints"] += data["floats"][:8]
    data["floats"] = data["floats"][8:]


def _not_float64s(data):
    data["floats"] += b"\0"


def _count_mismatch(data):
    def edit(ints, counts_at, series_at):
        ints[counts_at] += 1
    _edit_ints(data, edit)


def _negative_count(data):
    def edit(ints, counts_at, series_at):
        ints[counts_at] += ints[counts_at + 1] + 1   # the sum still matches
        ints[counts_at + 1] = -1
    _edit_ints(data, edit)


def _series_bad_count(data):
    def edit(ints, counts_at, series_at):
        ints[series_at] = ints[series_at + 1] = 2**40
    _edit_ints(data, edit)


def _series_unequal(data):
    def edit(ints, counts_at, series_at):
        ints[series_at + 1] -= 1
    _edit_ints(data, edit)


@pytest.mark.parametrize("corrupt", [
    _block_boundary_moved, _not_float64s, _count_mismatch, _negative_count,
    _series_bad_count, _series_unequal,
])
def test_corrupt_packed_block_is_quarantined_miss(tmp_path, corrupt):
    """A packed block that does not decode never escapes
    ``Campaign.run``, even under a matching checksum: the entry is
    quarantined and the scenario re-runs."""
    scenario = Scenario(config=MICRO.replace(sample_hosts=True, sample_interval=0.05))
    cache = ResultCache(tmp_path)
    first = Campaign(cache=cache).run([scenario])
    entry = next(tmp_path.glob("*.json"))
    data = unseal_entry(entry.read_bytes())
    corrupt(data)
    entry.write_bytes(seal_entry(data))

    rerun = Campaign(cache=cache).run([scenario])
    assert rerun.cache_hits == 0 and rerun.executed == 1
    assert cache.corrupt == 1
    assert len(list(tmp_path.glob("*.json.corrupt"))) == 1
    assert result_content_hash(rerun.results[0]) == result_content_hash(first.results[0])


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
        _run_with_wall_timeout(Scenario(config=GLACIAL), RunRequest(timeout=1.0))
    assert time.monotonic() - start < 30.0


def test_timer_timeout_returns_result_when_fast_enough():
    from repro.experiments.campaign import _run_with_wall_timeout

    result = _run_with_wall_timeout(Scenario(config=MICRO), RunRequest(timeout=60.0))
    assert result.makespan > 0


def test_cut_run_leaves_traced_calls_working():
    """After the guard cuts a run, a function called under a profile
    function still returns.  Clearing the injection with
    ``PyThreadState_SetAsyncExc(tid, NULL)`` left CPython's
    async-exception eval-breaker bit set, so every later function entry
    under a trace or profile function spun forever (a failing hypothesis
    example hung in its explain phase).  Run in a child process, which
    the timeout kills if it spins."""
    code = textwrap.dedent("""
        import sys
        from repro.experiments import ExperimentConfig, Scenario
        from repro.experiments.campaign import (
            RunRequest, _ScenarioTimeout, _run_with_wall_timeout,
        )

        glacial = ExperimentConfig.tiny(
            n_jobs=2, n_workers=2, iterations=200_000, seed=11)
        try:
            _run_with_wall_timeout(Scenario(config=glacial),
                                   RunRequest(timeout=0.5))
        except _ScenarioTimeout:
            pass

        def probe():
            return "returned"

        sys.setprofile(lambda frame, event, arg: None)
        print(probe())
    """)
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "returned"


def test_wall_timeout_off_main_thread_uses_timer_fallback():
    """The guard holds off the main thread too."""
    from repro.experiments.campaign import (
        _ScenarioTimeout,
        _run_with_wall_timeout,
    )

    box = {}

    def worker():
        try:
            _run_with_wall_timeout(Scenario(config=GLACIAL), RunRequest(timeout=1.0))
        except BaseException as exc:  # noqa: BLE001 - capturing for assert
            box["exc"] = exc

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=60.0)
    assert not t.is_alive()
    assert isinstance(box["exc"], _ScenarioTimeout)


# -- retry backoff -------------------------------------------------------------


def test_backoff_schedule():
    """0.5 s after the first failed attempt, doubling, capped at 30 s."""
    from repro.experiments.campaign import _backoff

    assert [_backoff(n) for n in range(1, 8)] == [
        0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]


def test_retried_crash_pays_backoff_and_counts(monkeypatch):
    """Kill-always chaos: the quarantined scenario dies on attempt 1,
    the campaign sleeps the first backoff (0.5 s), attempt 2 dies too — the
    write-off and the backoff paid are both visible in the counters.
    (Only quarantine attempts are charged: the original pool-breaking
    crash cannot be attributed to a scenario, and innocent survivors of
    a broken pool must not be billed retries.)"""
    monkeypatch.setenv(CHAOS_KILL_ENV, "always")
    doomed = Scenario(config=MICRO.replace(seed=9)).with_tags(chaos="kill")
    campaign = Campaign(executor=ParallelExecutor(max_workers=2),
                        max_attempts=2, on_failure="report")
    start = time.monotonic()
    res = campaign.run([doomed])
    elapsed = time.monotonic() - start
    assert [f.kind for f in res.failures] == ["crashed"]
    assert res.failures[0].attempts == 2
    counters = res.campaign_metrics["counters"]
    assert counters["campaign_retries_total"] == 1
    assert counters["campaign_backoff_seconds_total"] == 0.5
    assert elapsed >= 0.5                          # the backoff was real


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
