"""Round-trip tests for the full ExperimentResult serialization.

The campaign's result cache stores results as JSON
(:func:`result_to_full_dict` / :func:`result_from_full_dict`); these
tests pin the contract: everything a figure generator reads — JCTs,
barrier statistics, utilization — survives the round trip exactly.
"""

import json
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.dl.metrics import BarrierSeries, JobMetrics
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    Scenario,
    execute_scenario,
)
from repro.experiments.export import (
    result_content_hash,
    result_from_full_dict,
    result_to_full_dict,
)
from repro.experiments.runtime import ExperimentResult, HostSamples
from repro.telemetry import ActiveWindow
from repro.telemetry.sampler import SampleSeries

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def _round_trip(result):
    # Through actual JSON text, as the on-disk cache stores it.
    return result_from_full_dict(json.loads(json.dumps(
        result_to_full_dict(result)
    )), result.config)


def test_round_trip_preserves_summary_stats():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    assert back.config == res.config
    assert back.jcts == res.jcts
    assert back.avg_jct == res.avg_jct
    assert back.makespan == res.makespan
    assert back.sim_events == res.sim_events
    assert back.ps_host_of_job == res.ps_host_of_job
    assert back.tc_commands == res.tc_commands
    assert back.host_ids == res.host_ids


def test_round_trip_preserves_barrier_stats():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    np.testing.assert_array_equal(back.barrier_wait_means(),
                                  res.barrier_wait_means())
    np.testing.assert_array_equal(back.barrier_wait_variances(),
                                  res.barrier_wait_variances())
    for job_id, m in res.metrics.items():
        assert back.metrics[job_id].jct == m.jct
        assert back.metrics[job_id].global_steps == m.global_steps


def test_round_trip_preserves_utilization_queries():
    res = execute_scenario(Scenario(
        config=MICRO.replace(sample_hosts=True, sample_interval=0.02)
    ))
    back = _round_trip(res)
    assert set(back.samplers) == set(res.samplers)
    window = ActiveWindow(0.1 * res.makespan, 0.9 * res.makespan)
    for kind in ("cpu", "net_in", "net_out"):
        assert back.mean_utilization(res.host_ids, kind, window) == \
            res.mean_utilization(res.host_ids, kind, window)


def test_round_trip_preserves_worker_only_hosts():
    res = execute_scenario(Scenario(config=MICRO))
    back = _round_trip(res)
    assert back.worker_only_hosts() == res.worker_only_hosts()
    assert back.ps_hosts == res.ps_hosts


def test_round_trip_without_samplers_still_rejects_utilization():
    res = execute_scenario(Scenario(config=MICRO))  # sample_hosts=False
    back = _round_trip(res)
    window = ActiveWindow(0.0, res.makespan)
    with pytest.raises(ConfigError):
        back.mean_utilization(back.host_ids, "cpu", window)


def test_full_dict_rejects_unknown_version():
    res = execute_scenario(Scenario(config=MICRO))
    data = result_to_full_dict(res)
    data["full_schema_version"] = 999
    with pytest.raises(ConfigError):
        result_from_full_dict(data, res.config)


# -- packed float64 blocks ---------------------------------------------------

INF, NAN = float("inf"), float("nan")
SUBNORMAL = 5e-324
SAMPLES = st.lists(st.floats(allow_subnormal=True), max_size=8)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _synthetic(waits, times, values):
    barriers = BarrierSeries(2)
    barriers._waits = waits
    series = SampleSeries(times=times, values=values)
    return ExperimentResult(
        config=MICRO,
        jcts={"job00": 1.0},
        metrics={"job00": JobMetrics(job_id="job00", n_workers=2, barriers=barriers)},
        ps_host_of_job={"job00": "h00"},
        samplers={"h00": HostSamples(cpu=series, net_in=series, net_out=series)},
    )


@given(waits=st.dictionaries(st.integers(0, 10**6), SAMPLES, max_size=6),
       series=st.lists(st.tuples(st.floats(allow_subnormal=True),
                                 st.floats(allow_subnormal=True)), max_size=8))
@example(waits={}, series=[])
@example(waits={0: [], 7: [-0.0, SUBNORMAL, -SUBNORMAL, INF, -INF, NAN], 2: []},
         series=[(-0.0, NAN), (INF, SUBNORMAL), (-INF, -0.0)])
def test_packed_samples_round_trip_bit_for_bit(waits, series):
    times = [t for t, _ in series]
    values = [v for _, v in series]
    back = _round_trip(_synthetic(waits, times, values))
    got = back.metrics["job00"].barriers._waits
    assert list(got) == list(waits)
    for iteration, samples in waits.items():
        assert _bits(got[iteration]) == _bits(samples)
    for kind in ("cpu", "net_in", "net_out"):
        got_series = getattr(back.samplers["h00"], kind)
        assert _bits(got_series.times) == _bits(times)
        assert _bits(got_series.values) == _bits(values)


# -- the cache entry on disk ---------------------------------------------------


@given(waits=st.dictionaries(st.integers(0, 10**6), SAMPLES, max_size=6),
       series=st.lists(st.tuples(st.floats(allow_subnormal=True),
                                 st.floats(allow_subnormal=True)), max_size=8),
       jct=st.floats(allow_subnormal=True))
@example(waits={}, series=[], jct=1.0)
@example(waits={0: [], 7: [-0.0, SUBNORMAL, -SUBNORMAL, INF, -INF, NAN], 2: []},
         series=[(-0.0, NAN), (INF, SUBNORMAL), (-INF, -0.0)], jct=-0.0)
@example(waits={1: [0.5]}, series=[], jct=NAN)
def test_cache_entry_round_trips_bit_for_bit(waits, series, jct):
    """``ResultCache.put`` -> the file on disk -> ``ResultCache.get``
    gives back every sample and scalar bit for bit, and the stored
    content hash is the one recomputed from either result."""
    times = [t for t, _ in series]
    values = [v for _, v in series]
    result = _synthetic(waits, times, values)
    result.jcts["job00"] = jct
    scenario = Scenario(config=MICRO)
    with tempfile.TemporaryDirectory() as tmp:
        ResultCache(tmp).put(scenario, result)
        back = ResultCache(tmp).get(scenario)
    assert back is not None
    assert _bits([back.jcts["job00"]]) == _bits([jct])
    got = back.metrics["job00"].barriers._waits
    assert list(got) == list(waits)
    for iteration, samples in waits.items():
        assert _bits(got[iteration]) == _bits(samples)
    for kind in ("cpu", "net_in", "net_out"):
        got_series = getattr(back.samplers["h00"], kind)
        assert _bits(got_series.times) == _bits(times)
        assert _bits(got_series.values) == _bits(values)
    assert back.content_hash == result_content_hash(back) == result_content_hash(result)
