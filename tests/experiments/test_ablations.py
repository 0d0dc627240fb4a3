"""Tests for the ablation generators (tiny scale, plumbing-level)."""

import pytest

from repro.cluster import SchedulingPolicy
from repro.experiments import ExperimentConfig
from repro.experiments.study import ablations

TINY = ExperimentConfig(n_jobs=4, n_workers=4, iterations=4,
                        launch_stagger=0.01, tls_interval=0.5)


def test_bands_rows_cover_requested_counts():
    result = ablations.bands(TINY, band_counts=(1, 4))
    labels = [(r[0], r[1]) for r in result.rows]
    assert ("fifo", "-") in labels
    assert ("tls-one", 1) in labels and ("tls-one", 4) in labels
    assert "A1" in result.render()


def test_interval_rows():
    result = ablations.interval(TINY, intervals=(0.5, 2.0))
    policies = {r[0] for r in result.rows}
    assert policies == {"fifo", "tls-one", "tls-rr"}
    assert "A2" in result.render()


def test_transport_rows():
    result = ablations.transport(TINY, segment_sizes=(65536,))
    assert result.rows[0][0] == "64 KiB"
    assert "A3" in result.render()


def test_fair_queue_rows():
    result = ablations.fair_queue(TINY)
    assert [r[0] for r in result.rows] == ["fifo", "drr", "tls-one"]
    fifo_row = result.rows[0]
    assert fifo_row[2] == pytest.approx(1.0)  # normalized by itself


def test_placement_from_scheduler_shapes():
    spec = ablations._placement_from_scheduler(
        SchedulingPolicy.PS_AWARE, n_jobs=6, n_hosts=6, seed=1
    )
    assert spec.groups == (1,) * 6  # spread is perfect
    spec_rand = ablations._placement_from_scheduler(
        SchedulingPolicy.RANDOM, n_jobs=12, n_hosts=4, seed=1
    )
    assert spec_rand.n_jobs == 12
    assert spec_rand.max_colocation >= 3  # pigeonhole


def test_ps_aware_rows():
    result = ablations.ps_aware(TINY)
    assert len(result.rows) == 2
    assert "A5" in result.render()


def test_rate_control_rows_and_shape():
    result = ablations.rate_control(TINY, allocation_errors=(1.0, 0.5))
    by_acc = {r[1]: r[3] for r in result.rows if r[0] == "rate-control"}
    # an under-estimating allocator is never better than a perfect one
    assert by_acc["50%"] >= by_acc["100%"] - 1e-9
    assert "A6" in result.render()


def test_async_mode_rows():
    result = ablations.async_mode(TINY)
    assert [r[0] for r in result.rows] == ["fifo", "tls-one", "tls-rr"]
    assert "A7" in result.render()
