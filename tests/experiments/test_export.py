"""Tests for the JSON/CSV export module."""

import csv
import io
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, Policy, Scenario, execute_scenario
from repro.experiments.export import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    config_to_dict,
    from_json,
    result_to_dict,
    to_csv,
    to_json,
)

TINY = ExperimentConfig.tiny()


@pytest.fixture(scope="module")
def result():
    return execute_scenario(Scenario(config=TINY.replace(policy=Policy.TLS_ONE)))


def test_config_to_dict_is_json_safe(result):
    d = config_to_dict(result.config)
    json.dumps(d)  # must not raise
    assert d["policy"] == "tls-one"
    assert d["n_jobs"] == TINY.n_jobs


def test_result_to_dict_schema(result):
    d = result_to_dict(result)
    assert d["schema_version"] == SCHEMA_VERSION
    assert len(d["jobs"]) == TINY.n_jobs
    assert d["avg_jct"] == pytest.approx(result.avg_jct)
    assert d["barrier_wait_mean"]["n"] > 0
    assert all("jct" in j and "ps_host" in j for j in d["jobs"])
    assert any("htb" in c for c in d["tc_commands"])
    json.dumps(d)


def test_to_json_roundtrip(result):
    text = to_json([result])
    runs = from_json(text)
    assert len(runs) == 1
    assert runs[0]["avg_jct"] == pytest.approx(result.avg_jct)


def test_from_json_rejects_bad_schema(result):
    text = to_json([result]).replace(
        f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 999'
    )
    with pytest.raises(ConfigError, match="schema"):
        from_json(text)


def test_from_json_rejects_non_array():
    with pytest.raises(ConfigError):
        from_json("{}")


def test_to_csv_columns_and_rows(result):
    text = to_csv([result])
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + TINY.n_jobs
    header = rows[0]
    first = dict(zip(header, rows[1]))
    assert first["policy"] == "tls-one"
    assert float(first["jct"]) > 0
    assert int(first["global_steps"]) == TINY.target_global_steps


def test_to_csv_multiple_runs(result):
    text = to_csv([result, result])
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 2 * TINY.n_jobs
