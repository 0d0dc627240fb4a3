"""Tests for the generic parameter sweep runner."""

import csv
import io

import pytest

from repro.errors import ConfigError
from repro.experiments import Campaign, ExperimentConfig, Policy
from repro.experiments.sweeps import sweep

TINY = ExperimentConfig.tiny()


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep(TINY, axes={})
    with pytest.raises(ConfigError):
        sweep(TINY, axes={"placement_index": []})
    with pytest.raises(ConfigError):
        sweep(TINY, axes={"not_a_field": [1]})


def test_sweep_cartesian_product():
    result = sweep(TINY, axes={"placement_index": [1, 8],
                               "policy": [Policy.FIFO, Policy.TLS_ONE]})
    assert len(result.points) == 4
    combos = {tuple(sorted(p.override_dict().items())) for p in result.points}
    assert len(combos) == 4


def test_sweep_point_summaries_populated():
    result = sweep(TINY, axes={"placement_index": [1]})
    [p] = result.points
    assert p.avg_jct > 0
    assert p.makespan >= p.avg_jct
    assert p.barrier_wait_mean >= 0


def test_sweep_filtered_and_best():
    result = sweep(TINY, axes={"placement_index": [1, 8]})
    only1 = result.filtered(placement_index=1)
    assert len(only1) == 1
    assert result.best().avg_jct == min(p.avg_jct for p in result.points)


def test_sweep_keep_results():
    result = sweep(TINY, axes={"placement_index": [1]}, keep_results=True)
    assert len(result.results) == 1
    assert result.results[0].avg_jct == result.points[0].avg_jct


def test_sweep_progress_callback():
    seen = []
    sweep(TINY, axes={"placement_index": [1, 8]},
          progress=lambda i, n, ov: seen.append((i, n, dict(ov))))
    assert seen[0] == (0, 2, {"placement_index": 1})
    assert seen[1][0] == 1


def test_sweep_progress_keeps_every_campaign_setting():
    """Wrapping the campaign for ``progress`` must not drop its settings."""
    camp = Campaign(observe_metrics=True)
    result = sweep(TINY, axes={"placement_index": [1]}, keep_results=True,
                   progress=lambda i, n, ov: None, campaign=camp)
    assert result.results[0].metrics_snapshot
    assert camp.progress is None  # the caller's campaign is left alone


def test_sweep_render_and_csv():
    result = sweep(TINY, axes={"policy": [Policy.FIFO, Policy.TLS_ONE]})
    text = result.render()
    assert "Sweep over policy" in text
    assert "tls-one" in text
    rows = list(csv.reader(io.StringIO(result.to_csv())))
    assert rows[0][0] == "policy"
    assert len(rows) == 3
    assert {rows[1][0], rows[2][0]} == {"fifo", "tls-one"}
