"""Tests for the dynamic workload generator and online cluster runs."""

import pytest

from repro.cluster import SchedulingPolicy
from repro.dl.model_zoo import ModelSpec
from repro.errors import WorkloadError
from repro.experiments.workloads import (
    DynamicRunResult,
    WorkloadSpec,
    generate_jobs,
    run_dynamic_cluster,
)
from repro.tensorlights import TLMode

FAST = ModelSpec("fast", n_params=50_000, per_sample_compute=0.004)


def small_spec(**kw):
    base = dict(n_jobs=6, arrival_rate=2.0, n_workers=4,
                iterations_range=(3, 6))
    base.update(kw)
    return WorkloadSpec(**base)


def small_jobs(seed=0, **kw):
    return generate_jobs(small_spec(**kw), seed=seed,
                         model_overrides={"resnet32_cifar10": FAST})


# ---------------------------------------------------------------- spec/gen


def test_spec_validation():
    with pytest.raises(WorkloadError):
        WorkloadSpec(n_jobs=0)
    with pytest.raises(WorkloadError):
        WorkloadSpec(arrival_rate=0.0)
    with pytest.raises(WorkloadError):
        WorkloadSpec(models=())
    with pytest.raises(WorkloadError):
        WorkloadSpec(iterations_range=(5, 2))


def test_generate_jobs_count_and_ordering():
    jobs = small_jobs()
    assert len(jobs) == 6
    arrivals = [j.arrival_time for j in jobs]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] > 0


def test_generate_jobs_deterministic_per_seed():
    a = small_jobs(seed=3)
    b = small_jobs(seed=3)
    assert [(j.job_id, j.arrival_time, j.target_global_steps) for j in a] == [
        (j.job_id, j.arrival_time, j.target_global_steps) for j in b
    ]
    c = small_jobs(seed=4)
    assert [j.arrival_time for j in a] != [j.arrival_time for j in c]


def test_generate_jobs_iteration_bounds():
    jobs = small_jobs()
    for j in jobs:
        iters = j.target_global_steps // j.n_workers
        assert 3 <= iters <= 6


def test_generate_jobs_model_mix():
    spec = small_spec(models=(("resnet32_cifar10", 1.0), ("alexnet", 1.0)),
                      n_jobs=30)
    jobs = generate_jobs(spec, seed=1)
    names = {j.model.name for j in jobs}
    assert names == {"resnet32_cifar10", "alexnet"}


def test_generate_jobs_identical_stream_for_same_seed():
    spec = small_spec(models=(("resnet32_cifar10", 2.0), ("alexnet", 1.0)),
                      architectures=(("ps", 1.0), ("allreduce", 1.0)),
                      n_jobs=40)
    a = generate_jobs(spec, seed=11)
    b = generate_jobs(spec, seed=11)
    assert [(j.job_id, j.arrival_time, j.model.name, j.architecture,
             j.target_global_steps) for j in a] == \
           [(j.job_id, j.arrival_time, j.model.name, j.architecture,
             j.target_global_steps) for j in b]


def test_generate_jobs_different_seeds_diverge():
    spec = small_spec(n_jobs=20)
    arrivals = {s: [j.arrival_time for j in generate_jobs(spec, seed=s)]
                for s in (0, 1, 2)}
    assert arrivals[0] != arrivals[1]
    assert arrivals[1] != arrivals[2]


def test_generate_jobs_mix_weights_respected():
    # A 3:1 model mix over many jobs lands near 75/25 (within tolerance).
    spec = small_spec(models=(("resnet32_cifar10", 3.0), ("alexnet", 1.0)),
                      n_jobs=400, arrival_rate=10.0)
    jobs = generate_jobs(spec, seed=5)
    frac = sum(j.model.name == "resnet32_cifar10" for j in jobs) / len(jobs)
    assert 0.65 < frac < 0.85


def test_generate_jobs_architecture_mix():
    spec = small_spec(architectures=(("ps", 1.0), ("allreduce", 1.0)),
                      n_jobs=200, arrival_rate=10.0)
    jobs = generate_jobs(spec, seed=5)
    frac = sum(j.architecture == "allreduce" for j in jobs) / len(jobs)
    assert 0.4 < frac < 0.6
    # the default mix stays pure PS and draws nothing from the rng
    pure = generate_jobs(small_spec(n_jobs=6), seed=9)
    assert all(j.architecture == "ps" for j in pure)


def test_architecture_mix_validation():
    with pytest.raises(WorkloadError):
        small_spec(architectures=())
    with pytest.raises(WorkloadError):
        small_spec(architectures=(("rpc", 1.0),))
    with pytest.raises(WorkloadError):
        small_spec(architectures=(("allreduce", 1.0),), n_workers=1)


# ---------------------------------------------------------------- dynamic run


def test_dynamic_run_completes_all_jobs():
    jobs = small_jobs()
    result = run_dynamic_cluster(jobs, n_hosts=6,
                                 scheduler_policy=SchedulingPolicy.RANDOM,
                                 seed=1)
    assert isinstance(result, DynamicRunResult)
    assert set(result.jcts) == {j.job_id for j in jobs}
    assert all(v > 0 for v in result.jcts.values())
    assert result.makespan > 0


def test_dynamic_run_ps_aware_minimizes_colocation():
    jobs = small_jobs(n_jobs=8)
    rand = run_dynamic_cluster(jobs, n_hosts=6,
                               scheduler_policy=SchedulingPolicy.RANDOM, seed=2)
    aware = run_dynamic_cluster(jobs, n_hosts=6,
                                scheduler_policy=SchedulingPolicy.PS_AWARE,
                                seed=2)
    assert aware.max_colocation <= rand.max_colocation


def test_dynamic_run_with_tensorlights():
    jobs = small_jobs(n_jobs=8)
    # Five hosts hold one PS plus four workers each, so spread placement
    # colocates PSes of overlapping jobs.
    result = run_dynamic_cluster(jobs, n_hosts=5,
                                 scheduler_policy=SchedulingPolicy.SPREAD,
                                 tensorlights=TLMode.ONE, seed=1)
    assert result.tc_reconfigurations > 0
    assert set(result.jcts) == {j.job_id for j in jobs}


def test_dynamic_run_is_deterministic():
    jobs = small_jobs()
    a = run_dynamic_cluster(jobs, n_hosts=6, seed=5)
    b = run_dynamic_cluster(jobs, n_hosts=6, seed=5)
    assert a.jcts == b.jcts
    assert a.ps_host_of_job == b.ps_host_of_job


def test_dynamic_run_mixed_architectures():
    jobs = small_jobs(n_jobs=8,
                      architectures=(("ps", 1.0), ("allreduce", 1.0)))
    assert {j.architecture for j in jobs} == {"ps", "allreduce"}
    result = run_dynamic_cluster(jobs, n_hosts=6,
                                 scheduler_policy=SchedulingPolicy.SPREAD,
                                 tensorlights=TLMode.ONE, seed=3)
    assert set(result.jcts) == {j.job_id for j in jobs}
    assert all(v > 0 for v in result.jcts.values())
    assert result.tc_reconfigurations > 0
