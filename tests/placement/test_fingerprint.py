"""Fingerprinting: determinism, value checks, shape keys, store semantics."""

import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, Policy
from repro.placement import (
    PROFILE_ITERATIONS,
    PROFILE_SEED,
    FingerprintStore,
    JobFingerprint,
    profile_config,
    profile_job_shape,
    shape_key,
)

TINY = ExperimentConfig.tiny()


# ------------------------------------------------------------ profile config


def test_profile_config_pins_the_cluster_mix():
    pcfg = profile_config(TINY.replace(n_jobs=7, seed=99, policy=Policy.TLS_RR,
                                       launch_stagger=0.3, netem_loss=0.01))
    assert pcfg.n_jobs == 1
    assert pcfg.seed == PROFILE_SEED
    assert pcfg.iterations == PROFILE_ITERATIONS
    assert pcfg.policy == Policy.FIFO
    assert pcfg.launch_stagger == 0.0
    assert pcfg.netem_loss == 0.0
    assert pcfg.placement_policy == "oblivious"
    # the job shape itself is inherited
    assert pcfg.model == TINY.model
    assert pcfg.n_workers == TINY.n_workers
    assert pcfg.local_batch_size == TINY.local_batch_size


def test_shape_key_ignores_contention_knobs_but_not_shape():
    base = shape_key(TINY)
    assert shape_key(TINY.replace(n_jobs=9, seed=7, policy=Policy.TLS_ONE,
                                  placement_policy="least-contended")) == base
    assert shape_key(TINY.replace(local_batch_size=8)) != base
    assert shape_key(TINY.replace(n_workers=3)) != base


# -------------------------------------------------------------- determinism


def test_profiling_is_deterministic():
    fp1 = profile_job_shape(TINY)
    fp2 = profile_job_shape(TINY)
    assert fp1 == fp2
    assert fp1.shape_key == shape_key(TINY)


def test_fingerprint_values_are_sane():
    fp = profile_job_shape(TINY)
    assert fp.iteration_period > 0
    assert 0.0 <= fp.comm_duty_cycle <= 1.0
    assert fp.bytes_per_iteration > 0
    assert 0.0 <= fp.phase_offset < fp.iteration_period
    assert fp.comm_seconds == pytest.approx(
        fp.comm_duty_cycle * fp.iteration_period
    )
    assert fp.profile_iterations == PROFILE_ITERATIONS


def test_profiled_fingerprint_is_pinned():
    """Every field, exactly: the profile reads its bytes from the PS
    host NIC and its barrier waits from the registry histogram."""
    assert profile_job_shape(TINY) == JobFingerprint(
        shape_key="53c29ed7cb8aaafd844db373a9086765e0fc8911f369dc1eba20627ee6157e9c",
        iteration_period=0.2377740336409552,
        comm_duty_cycle=0.14816401046867306,
        bytes_per_iteration=7426464.0,
        phase_offset=0.0,
        barrier_wait_p50=0.03522955440955711,
        profile_iterations=6,
    )


# ------------------------------------------------------------- value checks


def test_fingerprint_rejects_bad_values():
    with pytest.raises(ConfigError):
        JobFingerprint(shape_key="x", iteration_period=0.0,
                       comm_duty_cycle=0.5, bytes_per_iteration=1.0,
                       phase_offset=0.0, barrier_wait_p50=0.0,
                       profile_iterations=6)
    with pytest.raises(ConfigError):
        JobFingerprint(shape_key="x", iteration_period=1.0,
                       comm_duty_cycle=1.5, bytes_per_iteration=1.0,
                       phase_offset=0.0, barrier_wait_p50=0.0,
                       profile_iterations=6)


def test_phase_at_wraps_by_period():
    fp = JobFingerprint(shape_key="x", iteration_period=2.0,
                        comm_duty_cycle=0.25, bytes_per_iteration=1.0,
                        phase_offset=0.5, barrier_wait_p50=0.1,
                        profile_iterations=6)
    assert fp.phase_at(0.0) == pytest.approx(0.5)
    assert fp.phase_at(1.6) == pytest.approx(0.1)
    assert fp.phase_at(4.0) == pytest.approx(0.5)


# --------------------------------------------------------------------- store


def test_store_hit_miss_semantics():
    store = FingerprintStore()
    assert store.get(shape_key(TINY)) is None
    fp = store.get_or_profile(TINY)
    assert (store.hits, store.misses) == (0, 1)
    # same shape, different contention knobs -> hit, no second profile
    again = store.get_or_profile(TINY.replace(n_jobs=8, seed=5))
    assert again is fp
    assert (store.hits, store.misses) == (1, 1)
    # a different shape is a second miss
    store.get_or_profile(TINY.replace(local_batch_size=8))
    assert (store.hits, store.misses) == (1, 2)
    assert len(store) == 2
    store.clear()
    assert len(store) == 0 and (store.hits, store.misses) == (0, 0)
