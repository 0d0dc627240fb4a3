"""End-to-end integration tests: the paper's qualitative results.

These run a mid-scale grid search (8 jobs x 10 workers on a 2.5 Gbps
fabric — the same network/compute contention ratio as the full 21x20
testbed at 10 Gbps) and assert the *shapes* the paper reports.  The full-
scale versions live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, Policy, Scenario, execute_scenario

MID = ExperimentConfig(
    n_jobs=8,
    n_workers=10,
    iterations=12,
    link_gbps=2.5,
    launch_stagger=0.1,
    tls_interval=2.0,
    seed=13,
)


@pytest.fixture(scope="module")
def results():
    out = {}
    for placement in (1, 8):
        for policy in (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR):
            out[(placement, policy)] = execute_scenario(Scenario(
                config=MID.replace(placement_index=placement, policy=policy)
            ))
    return out


def test_observation1_placement_impacts_jct(results):
    """Figure 2: colocating all PSes is substantially worse than spreading."""
    heavy = results[(1, Policy.FIFO)].avg_jct
    mild = results[(8, Policy.FIFO)].avg_jct
    assert heavy > 1.15 * mild


def test_observation2_contention_creates_stragglers(results):
    """Figure 3: barrier waits (mean and variance) inflate under colocation."""
    heavy = results[(1, Policy.FIFO)]
    mild = results[(8, Policy.FIFO)]
    assert heavy.barrier_wait_means().mean() > 1.5 * mild.barrier_wait_means().mean()
    assert (
        heavy.barrier_wait_variances().mean()
        > 1.5 * mild.barrier_wait_variances().mean()
    )


def test_result1_tensorlights_improves_avg_jct(results):
    """Figure 5a at the heavy placement: both TLs modes beat FIFO."""
    fifo = results[(1, Policy.FIFO)].avg_jct
    assert results[(1, Policy.TLS_ONE)].avg_jct < 0.97 * fifo
    assert results[(1, Policy.TLS_RR)].avg_jct < 0.97 * fifo


def test_result1_work_conservation_preserves_mild_placements(results):
    """Figure 5a at placement #8: TensorLights costs nothing."""
    fifo = results[(8, Policy.FIFO)].avg_jct
    for policy in (Policy.TLS_ONE, Policy.TLS_RR):
        assert results[(8, policy)].avg_jct == pytest.approx(fifo, rel=0.03)


def test_result2_straggler_variance_median_drops(results):
    """Figure 6b: the straggler indicator drops under TensorLights."""
    fifo = np.median(results[(1, Policy.FIFO)].barrier_wait_variances())
    for policy in (Policy.TLS_ONE, Policy.TLS_RR):
        assert np.median(results[(1, policy)].barrier_wait_variances()) < fifo


def test_tls_one_differentiates_jobs_by_priority(results):
    """TLs-One: higher-priority (earlier) jobs finish faster — the paper's
    'progress differences across concurrent jobs'."""
    res = results[(1, Policy.TLS_ONE)]
    jcts = [res.jcts[j] for j in sorted(res.jcts)]  # arrival order
    assert jcts[0] < jcts[-1]


def test_tls_rr_is_fairer_than_tls_one(results):
    """TLs-RR: rotation narrows the per-job JCT spread vs TLs-One."""
    one = np.std(list(results[(1, Policy.TLS_ONE)].jcts.values()))
    rr = np.std(list(results[(1, Policy.TLS_RR)].jcts.values()))
    assert rr < one


def test_every_job_reaches_its_global_step_target(results):
    for res in results.values():
        for m in res.metrics.values():
            assert m.global_steps == MID.target_global_steps
