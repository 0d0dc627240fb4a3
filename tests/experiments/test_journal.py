"""Tests for the write-ahead campaign journal (crash consistency)."""

import json
import os

import pytest

from repro.errors import JournalError
from repro.experiments import ExperimentConfig, Scenario
from repro.experiments.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    list_runs,
    new_run_id,
)

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def _scenario(seed=1):
    return Scenario(config=MICRO.replace(seed=seed)).with_tags(seed=str(seed))


def _start(journal, total):
    journal.append({
        "kind": "campaign_start", "schema": JOURNAL_SCHEMA,
        "run_id": journal.run_id, "total": total, "ts": 0.0,
    })


def _plan(journal, scenarios):
    for index, scenario in enumerate(scenarios):
        journal.append({
            "kind": "scenario", "index": index, "key": scenario.key(),
            "label": scenario.label, "scenario": scenario.to_dict(),
        })


def test_append_replay_roundtrip(tmp_path):
    scenarios = [_scenario(1), _scenario(2)]
    with CampaignJournal.create(tmp_path, "run-a") as journal:
        _start(journal, 2)
        _plan(journal, scenarios)
        journal.append({"kind": "submit", "index": 0,
                        "key": scenarios[0].key(), "attempt": 1})
        journal.append({
            "kind": "outcome", "index": 0, "key": scenarios[0].key(),
            "status": "ok", "cached": False, "attempts": 1,
            "content_hash": "abc", "worker": 123,
        })

    state = CampaignJournal.open("run-a", tmp_path).state()
    assert state.total == 2
    assert state.generations == 1
    # The plan survives byte-for-byte: same content keys after round-trip.
    assert [s.key() for s in state.scenarios] == [s.key() for s in scenarios]
    assert state.scenarios[0].tag("seed") == "1"
    assert state.attempts == {scenarios[0].key(): 1}
    assert state.completed_keys() == {scenarios[0].key()}
    assert state.pending() == [1]


def test_torn_tail_is_tolerated(tmp_path):
    """A SIGKILL mid-append leaves a truncated final line — not an error."""
    scenarios = [_scenario(1)]
    with CampaignJournal.create(tmp_path, "run-torn") as journal:
        _start(journal, 1)
        _plan(journal, scenarios)
    path = tmp_path / "run-torn.jsonl"
    with open(path, "a") as fh:
        fh.write('{"kind": "outcome", "index": 0, "sta')  # the torn write

    state = CampaignJournal.open("run-torn", tmp_path).state()
    assert state.torn_tail
    assert state.outcomes == {}                   # the torn record never happened
    assert state.pending() == [0]


def test_mid_file_corruption_raises_when_strict(tmp_path):
    scenarios = [_scenario(1)]
    with CampaignJournal.create(tmp_path, "run-bad") as journal:
        _start(journal, 1)
    path = tmp_path / "run-bad.jsonl"
    with open(path, "a") as fh:
        fh.write("NOT JSON AT ALL\n")             # complete line, still garbage
    with CampaignJournal.open("run-bad", tmp_path) as journal:
        _plan(journal, scenarios)

    with pytest.raises(JournalError, match="corrupt journal record"):
        CampaignJournal.open("run-bad", tmp_path).replay(strict=True)
    state = CampaignJournal.open("run-bad", tmp_path).replay(strict=False)
    assert state.skipped_records == 1
    assert [s.key() for s in state.scenarios] == [scenarios[0].key()]


def test_unsupported_schema_rejected(tmp_path):
    with CampaignJournal.create(tmp_path, "run-future") as journal:
        journal.append({"kind": "campaign_start", "schema": JOURNAL_SCHEMA + 1,
                        "run_id": "run-future", "total": 0, "ts": 0.0})
    with pytest.raises(JournalError, match="schema"):
        CampaignJournal.open("run-future", tmp_path).replay()


def test_unknown_record_kinds_are_forward_compatible(tmp_path):
    with CampaignJournal.create(tmp_path, "run-fwd") as journal:
        _start(journal, 0)
        journal.append({"kind": "fancy_new_thing", "payload": [1, 2, 3]})
    state = CampaignJournal.open("run-fwd", tmp_path).replay()
    assert state.generations == 1
    assert state.skipped_records == 0


def test_resume_records_count_generations(tmp_path):
    with CampaignJournal.create(tmp_path, "run-gen") as journal:
        _start(journal, 0)
        journal.append({"kind": "resume", "run_id": "run-gen",
                        "ts": 0.0, "pending": 0})
        journal.append({"kind": "resume", "run_id": "run-gen",
                        "ts": 0.0, "pending": 0})
    assert CampaignJournal.open("run-gen", tmp_path).replay().generations == 3


def test_last_outcome_wins(tmp_path):
    scenario = _scenario(1)
    with CampaignJournal.create(tmp_path, "run-retry") as journal:
        _start(journal, 1)
        _plan(journal, [scenario])
        for attempt, status in ((1, "crashed"), (2, "ok")):
            journal.append({"kind": "submit", "index": 0,
                            "key": scenario.key(), "attempt": attempt})
            journal.append({"kind": "outcome", "index": 0,
                            "key": scenario.key(), "status": status,
                            "cached": False, "attempts": attempt})
    state = CampaignJournal.open("run-retry", tmp_path).state()
    assert state.outcomes[scenario.key()]["status"] == "ok"
    assert state.attempts[scenario.key()] == 2
    assert state.pending() == []


def test_create_refuses_existing_run_id(tmp_path):
    CampaignJournal.create(tmp_path, "run-dup").append({"kind": "x"})
    with pytest.raises(JournalError, match="already exists"):
        CampaignJournal.create(tmp_path, "run-dup")


def test_open_names_known_runs_on_miss(tmp_path):
    CampaignJournal.create(tmp_path, "run-here").append({"kind": "x"})
    with pytest.raises(JournalError, match="run-here"):
        CampaignJournal.open("run-elsewhere", tmp_path)


def test_state_rejects_scenario_holes(tmp_path):
    scenario = _scenario(1)
    with CampaignJournal.create(tmp_path, "run-holes") as journal:
        _start(journal, 2)
        journal.append({                          # index 1 but never index 0
            "kind": "scenario", "index": 1, "key": scenario.key(),
            "label": scenario.label, "scenario": scenario.to_dict(),
        })
    with pytest.raises(JournalError, match="lost scenario records"):
        CampaignJournal.open("run-holes", tmp_path).state()


def test_appends_are_single_complete_lines(tmp_path):
    """Every record is one newline-terminated JSON object on disk."""
    with CampaignJournal.create(tmp_path, "run-lines") as journal:
        _start(journal, 0)
        journal.append({"kind": "campaign_end", "executed": 0,
                        "cached": 0, "failed": 0, "ts": 0.0})
    raw = (tmp_path / "run-lines.jsonl").read_text()
    assert raw.endswith("\n")
    lines = raw.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["kind"] for line in lines)


def test_list_runs_newest_first(tmp_path):
    assert list_runs(tmp_path) == []              # missing dir: empty, no error
    for name in ("run-1", "run-2"):
        CampaignJournal.create(tmp_path, name).append({"kind": "x"})
    runs = list_runs(tmp_path)
    assert {r["run_id"] for r in runs} == {"run-1", "run-2"}
    assert all(r["bytes"] > 0 for r in runs)
    mtimes = [r["mtime"] for r in runs]
    assert mtimes == sorted(mtimes, reverse=True)


def test_new_run_ids_do_not_collide():
    assert new_run_id() != new_run_id()


def test_journal_defaults_to_the_campaign_cache_dir(tmp_path, monkeypatch):
    """A journaled campaign with an explicit cache journals beside it,
    not under ``$REPRO_CACHE_DIR`` or the home directory."""
    from repro.experiments.campaign import CACHE_DIR_ENV, Campaign, ResultCache

    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
    cache = ResultCache(tmp_path / "cache")
    campaign = Campaign(cache=cache, journal=True, run_id="beside")
    assert campaign.journal_dir == tmp_path / "cache" / "journals"
    campaign.run([_scenario(1)])
    assert [run["run_id"] for run in list_runs(campaign.journal_dir)] == ["beside"]
    assert not (tmp_path / "env-cache").exists()
    assert not (tmp_path / "home").exists()


def test_state_rejects_a_plan_cut_short(tmp_path):
    """A kill while the plan was being written leaves fewer scenario
    records than ``campaign_start`` announced: resuming it would run
    only the recorded prefix, so the journal is refused."""
    from repro.experiments.campaign import Campaign, ResultCache

    scenarios = [_scenario(seed) for seed in range(1, 5)]
    with CampaignJournal.create(tmp_path, "run-short") as journal:
        _start(journal, 4)
        _plan(journal, scenarios[:2])
    with open(tmp_path / "run-short.jsonl", "a") as fh:
        fh.write('{"kind":"scenario","index":2,"ke')  # the torn third
    with pytest.raises(JournalError, match="lost scenario records 2-3"):
        CampaignJournal.open("run-short", tmp_path).state()
    campaign = Campaign(cache=ResultCache(tmp_path / "cache"),
                        resume="run-short", journal_dir=tmp_path)
    with pytest.raises(JournalError, match="lost scenario records"):
        campaign.run()


@pytest.mark.parametrize("content", ["", '{"kind":"campaign_start","sch'])
def test_state_rejects_a_journal_without_campaign_start(tmp_path, content):
    (tmp_path / "run-unstarted.jsonl").write_text(content)
    with pytest.raises(JournalError, match="no campaign_start"):
        CampaignJournal.open("run-unstarted", tmp_path).state()


def test_torn_plan_batch_is_refused(tmp_path):
    """The start record and the plan are one write: a kill mid-write
    keeps a prefix of the batch, which :meth:`state` refuses."""
    scenarios = [_scenario(seed) for seed in range(1, 4)]
    with CampaignJournal.create(tmp_path, "run-batch") as journal:
        journal.append(
            {"kind": "campaign_start", "schema": JOURNAL_SCHEMA,
             "run_id": "run-batch", "total": 3, "ts": 0.0},
            *({"kind": "scenario", "index": i, "key": s.key(),
               "label": s.label, "scenario": s.to_dict()}
              for i, s in enumerate(scenarios)),
        )
    path = tmp_path / "run-batch.jsonl"
    raw = path.read_bytes()
    assert raw.count(b"\n") == 4
    assert CampaignJournal.open("run-batch", tmp_path).state().total == 3
    path.write_bytes(raw[:len(raw) * 2 // 3])
    with pytest.raises(JournalError, match="lost scenario records"):
        CampaignJournal.open("run-batch", tmp_path).state()


def test_journaled_cold_pass_fsyncs_plan_and_submits_once(tmp_path, monkeypatch):
    """Start + plan is one fsync, all submissions one more, then one per
    outcome and one for the end record."""
    import repro.experiments.journal as journal_mod
    from repro.experiments.campaign import Campaign, ResultCache

    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(journal_mod.os, "fsync",
                        lambda fd: calls.append(fd) or real_fsync(fd))
    scenarios = [_scenario(seed) for seed in range(1, 5)]
    campaign = Campaign(cache=ResultCache(tmp_path), journal=True, run_id="run-sync")
    assert campaign.run(scenarios).executed == 4
    assert len(calls) == 1 + 1 + 4 + 1
    kinds = [json.loads(line)["kind"] for line in
             (tmp_path / "journals" / "run-sync.jsonl").read_text().splitlines()]
    assert kinds == (["campaign_start"] + ["scenario"] * 4 + ["submit"] * 4
                     + ["outcome"] * 4 + ["campaign_end"])
