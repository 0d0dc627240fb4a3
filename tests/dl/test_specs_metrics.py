"""Unit tests for model zoo, job specs, and metrics."""

import numpy as np
import pytest

from repro.dl.job import JobSpec
from repro.dl.metrics import BarrierSeries, JobMetrics
from repro.dl.model_zoo import MODEL_ZOO, ModelSpec, get_model
from repro.errors import WorkloadError


# ---------------------------------------------------------------- ModelSpec


def test_zoo_contains_the_papers_model():
    m = get_model("resnet32_cifar10")
    # ~0.46M params -> ~1.86 MB updates, the paper's workload
    assert 400_000 < m.n_params < 500_000
    assert 1.7e6 < m.update_bytes < 2.0e6


def test_zoo_unknown_model():
    with pytest.raises(WorkloadError, match="unknown model"):
        get_model("gpt17")


def test_model_validation():
    with pytest.raises(WorkloadError):
        ModelSpec("bad", 0, 1.0)
    with pytest.raises(WorkloadError):
        ModelSpec("bad", 10, 0.0)
    with pytest.raises(WorkloadError):
        ModelSpec("bad", 10, 1.0, ps_update_compute=-1.0)


def test_model_scaled():
    base = get_model("resnet32_cifar10")
    big = base.scaled("big", param_factor=2.0, compute_factor=3.0)
    assert big.n_params == base.n_params * 2
    assert big.per_sample_compute == pytest.approx(base.per_sample_compute * 3)


def test_update_bytes_is_4_bytes_per_param():
    m = ModelSpec("m", 100, 1.0)
    assert m.update_bytes == 400


# ---------------------------------------------------------------- JobSpec


def job(**kw):
    base = dict(
        job_id="j0",
        model=get_model("resnet32_cifar10"),
        n_workers=20,
        local_batch_size=4,
        target_global_steps=30_000,
    )
    base.update(kw)
    return JobSpec(**base)


def test_paper_workload_iteration_count():
    """30k global steps / 20 workers == 1500 iterations (paper §III)."""
    assert job().n_iterations == 1500
    assert job().local_steps_per_worker == 1500


def test_iterations_round_up():
    assert job(target_global_steps=30_001).n_iterations == 1501


def test_compute_demand_per_step():
    spec = job()
    assert spec.compute_demand_per_step == pytest.approx(
        4 * spec.model.per_sample_compute
    )


def test_job_validation():
    with pytest.raises(WorkloadError):
        job(n_workers=0)
    with pytest.raises(WorkloadError):
        job(local_batch_size=0)
    with pytest.raises(WorkloadError):
        job(target_global_steps=10)  # < n_workers
    with pytest.raises(WorkloadError):
        job(arrival_time=-1.0)
    with pytest.raises(WorkloadError):
        job(compute_jitter_sigma=-0.1)


# ---------------------------------------------------------------- BarrierSeries


def test_barrier_series_records_and_aggregates():
    s = BarrierSeries(n_workers=2)
    s.record(0, 1.0)
    s.record(0, 3.0)
    s.record(1, 2.0)  # incomplete barrier: only one worker reported
    assert s.n_barriers == 2
    assert s.complete_barriers() == [0]
    assert s.per_barrier_mean().tolist() == [2.0]
    assert s.per_barrier_variance().tolist() == [1.0]
    assert s.waits() == [1.0, 3.0, 2.0]


def test_barrier_series_rejects_negative():
    s = BarrierSeries(1)
    with pytest.raises(WorkloadError):
        s.record(0, -0.5)


def test_barrier_series_empty_stats():
    s = BarrierSeries(3)
    assert s.per_barrier_mean().size == 0
    assert s.per_barrier_variance().size == 0


# ---------------------------------------------------------------- JobMetrics


def test_job_metrics_jct():
    m = JobMetrics("j", n_workers=2, arrival_time=1.0)
    with pytest.raises(WorkloadError):
        _ = m.jct
    m.end_time = 11.0
    assert m.finished
    assert m.jct == 10.0


def test_job_metrics_global_steps():
    m = JobMetrics("j", n_workers=2)
    m.local_steps["w0"] = 5
    m.local_steps["w1"] = 7
    assert m.global_steps == 12


def test_job_metrics_summary():
    m = JobMetrics("j", n_workers=2, arrival_time=0.0)
    m.end_time = 4.0
    m.barriers.record(0, 1.0)
    m.barriers.record(0, 2.0)
    s = m.summary()
    assert s["jct"] == 4.0
    assert s["barrier_wait_mean"] == pytest.approx(1.5)


def test_compression_shrinks_wire_bytes():
    spec = job(compression_ratio=0.25)
    assert spec.shard_bytes == -(-spec.model.update_bytes // 4)
    full = job()
    assert spec.shard_bytes * 4 - full.shard_bytes < 4


def test_compression_validation():
    with pytest.raises(WorkloadError):
        job(compression_ratio=0.0)
    with pytest.raises(WorkloadError):
        job(compression_ratio=1.5)


def test_compression_composes_with_sharding():
    spec = job(compression_ratio=0.5, n_ps=2)
    # half the bytes, split in two
    expected = -(-int(spec.model.update_bytes) // 4)  # /2 compression /2 shards
    assert abs(spec.shard_bytes - expected) <= 1


def test_shard_bytes_never_zero():
    tiny_model = ModelSpec("one-param", 1, 1.0)
    spec = JobSpec("j", tiny_model, n_workers=2, target_global_steps=4,
                   compression_ratio=0.01, n_ps=1)
    assert spec.shard_bytes >= 1
