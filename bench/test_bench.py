"""Tests of the benchmark itself, at ``--quick`` sizes (well under a minute).

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH / "golden.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "42", "--quick",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced") / "report.json"
    proc = run("--workload", "all", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "report.json"
    proc = run("--workload", "all", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())["workloads"]


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    proc, reports = untraced
    assert sorted(reports) == sorted(WORKLOADS)
    for metric in SPEC["end_to_end"]:
        pattern = rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}\b"
        assert len(re.findall(pattern, proc.stdout, re.M)) == len(WORKLOADS)
    for report in reports.values():
        assert all(m["value"] > 0 for m in report["metrics"].values())
    final = last_json(proc.stdout)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}


def test_every_per_layer_metric_is_reported(traced):
    proc, reports = traced
    names = {m["name"] for m in SPEC["per_layer"]}
    for report in reports.values():
        assert set(report["metrics"]) == names
    for metric in SPEC["per_layer"]:
        pattern = rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}\b"
        assert len(re.findall(pattern, proc.stdout, re.M)) == len(WORKLOADS)


def test_no_result_fails_its_check(untraced, traced):
    for _, reports in (untraced, traced):
        for report in reports.values():
            assert report["attempted"] > 0
            assert report["failed_share"] == 0


def test_traced_hashes_equal_untraced_and_golden(untraced, traced):
    for name in WORKLOADS:
        golden = GOLDEN["quick"][name]["42"]
        assert untraced[1][name]["hash"] == traced[1][name]["hash"] == golden


def test_ledger_self_time_fits_in_traced_wall_time(traced):
    for report in traced[1].values():
        assert 0 < report["self_ms_total"] <= report["traced_wall_ms"]


def test_ledger_attributes_nearly_all_time(traced):
    for report in traced[1].values():
        assert report["metrics"]["trace.unattributed_share"]["value"] < 0.01


def test_corrupted_golden_hash_fails_the_run(tmp_path):
    golden = json.loads(json.dumps(GOLDEN))
    golden["quick"]["ring-allreduce"]["42"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc = run("--workload", "ring-allreduce", "--golden", str(path))
    assert proc.returncode == 1
    final = last_json(proc.stdout)
    assert final["correct"] is False
    assert final["failed"] == final["attempted"] > 0


def test_without_the_program_it_exits_nonzero_silently(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "fig2-fifo", cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
