"""Tests for the metrics exporter (JSONL/CSV rows keyed by scenario hash)."""

import csv
import io
import json

from repro.telemetry import MetricsRegistry, to_csv, to_jsonl, write_csv, write_jsonl
from repro.telemetry.exporter import FIELDNAMES, rows, snapshot_rows


def _snapshot():
    reg = MetricsRegistry()
    reg.counter("drops", host="h00").inc(3)
    reg.gauge("depth").set(7.0)
    reg.histogram("lat", buckets=(1.0,)).observe(0.5)
    return reg.snapshot()


def test_snapshot_rows_flatten_every_instrument():
    got = list(snapshot_rows("abc123", _snapshot()))
    by_type = {}
    for row in got:
        assert set(row) == set(FIELDNAMES)
        assert row["scenario"] == "abc123"
        by_type.setdefault(row["type"], []).append(row)
    assert by_type["counter"] == [
        {"scenario": "abc123", "type": "counter",
         "metric": "drops{host=h00}", "field": "", "value": 3.0}
    ]
    assert by_type["gauge"][0]["value"] == 7.0
    hist_fields = {r["field"] for r in by_type["histogram"]}
    assert {"count", "sum", "mean", "min", "max",
            "bucket_le_1", "bucket_le_+Inf"} == hist_fields


def test_rows_sorted_by_scenario_key():
    snap = _snapshot()
    got = rows({"bbb": snap, "aaa": snap})
    keys = [r["scenario"] for r in got]
    assert keys == sorted(keys)
    assert set(keys) == {"aaa", "bbb"}


def test_to_jsonl_one_object_per_line():
    text = to_jsonl({"k": _snapshot()})
    lines = text.splitlines()
    assert text.endswith("\n")
    parsed = [json.loads(line) for line in lines]
    assert all(p["scenario"] == "k" for p in parsed)
    assert len(parsed) == len(rows({"k": _snapshot()}))


def test_to_jsonl_empty_is_empty_string():
    assert to_jsonl({}) == ""


def test_to_csv_header_and_roundtrip():
    text = to_csv({"k": _snapshot()})
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == FIELDNAMES
    got = list(reader)
    assert got[0]["scenario"] == "k"
    assert len(got) == len(rows({"k": _snapshot()}))


def test_write_jsonl_and_csv(tmp_path):
    snaps = {"k": _snapshot()}
    jl = tmp_path / "m.jsonl"
    cv = tmp_path / "m.csv"
    write_jsonl(str(jl), snaps)
    write_csv(str(cv), snaps)
    assert jl.read_text() == to_jsonl(snaps)
    assert cv.read_text() == to_csv(snaps)
