"""Round-trip tests for the full ExperimentResult serialization.

The campaign's result cache stores results as entry bytes
(:func:`result_to_full_dict` / :func:`result_from_full_dict`, framed by
:func:`seal_entry` / :func:`unseal_entry`); these tests pin the contract:
everything a figure generator reads — JCTs, barrier statistics,
utilization — survives the round trip exactly.
"""

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
from repro.experiments.export import seal_entry, unseal_entry
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
    # Through the entry bytes, as the on-disk cache stores them.
    return result_from_full_dict(
        unseal_entry(seal_entry(result_to_full_dict(result))), result.config)


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


# -- the codec on directly built results ---------------------------------------

FLOATS = st.floats(allow_subnormal=True)
INT64 = st.integers(-(2**63), 2**63 - 1)
NAMES = st.text(max_size=5)


def _series(draw):
    pairs = draw(st.lists(st.tuples(FLOATS, FLOATS), max_size=4))
    return SampleSeries(times=[t for t, _ in pairs], values=[v for _, v in pairs])


@st.composite
def results(draw):
    """An arbitrary :class:`ExperimentResult`: 0-N jobs and hosts, empty
    or sparse barrier series, every float class, the int64 range."""
    job_ids = draw(st.lists(NAMES, unique=True, max_size=3))
    metrics = {}
    for job_id in job_ids:
        barriers = BarrierSeries(2)
        barriers._waits = draw(st.dictionaries(
            INT64, st.lists(FLOATS, max_size=4), max_size=4))
        metrics[job_id] = JobMetrics(
            job_id=draw(NAMES), n_workers=draw(st.integers(0, 64)),
            arrival_time=draw(FLOATS), start_time=draw(FLOATS),
            end_time=draw(FLOATS), iterations_done=draw(INT64),
            local_steps=draw(st.dictionaries(NAMES, INT64, max_size=3)),
            barriers=barriers,
        )
    hosts = draw(st.lists(NAMES, unique=True, max_size=3))
    return ExperimentResult(
        config=MICRO,
        jcts={j: draw(FLOATS) for j in draw(st.permutations(job_ids))},
        metrics=metrics,
        ps_host_of_job={j: draw(NAMES) for j in job_ids},
        samplers={h: HostSamples(cpu=_series(draw), net_in=_series(draw),
                                 net_out=_series(draw)) for h in hosts},
        makespan=draw(FLOATS),
        sim_events=draw(INT64),
        wall_seconds=draw(FLOATS),
        tc_commands=draw(st.lists(NAMES, max_size=2)),
        host_ids=hosts,
        tc_reconfigurations=draw(st.integers(0, 2**31)),
    )


@given(result=results())
@example(result=ExperimentResult(config=MICRO, jcts={}, metrics={},
                                 ps_host_of_job={}))
def test_codec_round_trips_built_results_bit_for_bit(result):
    """Entry bytes -> result -> entry bytes is the identity: every int
    and float is bit for bit the one stored (the blocks are compared as
    bytes), and the content hash survives."""
    data = result_to_full_dict(result)
    back = result_from_full_dict(unseal_entry(seal_entry(data)), MICRO)
    assert result_to_full_dict(back) == data
    assert back.content_hash == data["content_hash"]
    assert result_content_hash(back) == result_content_hash(result)
    assert _bits([back.wall_seconds]) == _bits([result.wall_seconds])
    assert back.tc_reconfigurations == result.tc_reconfigurations
    for job_id, m in result.metrics.items():
        got = back.metrics[job_id]
        assert got.local_steps == m.local_steps
        assert list(got.barriers._waits) == list(m.barriers._waits)
        assert [_bits(w) for w in got.barriers._waits.values()] == \
            [_bits(w) for w in m.barriers._waits.values()]


def _single_result_entry(tmp_path):
    scenario = Scenario(config=MICRO)
    cache = ResultCache(tmp_path)
    return scenario, cache, cache.put(scenario, execute_scenario(scenario))


def _never_served(cache, scenario, entry, damaged):
    """``damaged`` in the slot is a miss; it is quarantined or left as is."""
    entry.write_bytes(damaged)
    corrupt = cache.corrupt
    assert cache.get(scenario) is None
    quarantined = entry.with_name(entry.name + ".corrupt")
    if quarantined.exists():
        assert cache.corrupt == corrupt + 1
        assert quarantined.read_bytes() == damaged
        quarantined.unlink()
    else:
        assert cache.corrupt == corrupt and entry.read_bytes() == damaged


def test_no_single_byte_change_is_ever_served(tmp_path):
    scenario, cache, entry = _single_result_entry(tmp_path)
    raw = entry.read_bytes()
    for at in range(len(raw)):
        for flip in (0x01, 0xFF):
            damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
            _never_served(cache, scenario, entry, damaged)


def test_no_truncated_entry_is_ever_served(tmp_path):
    scenario, cache, entry = _single_result_entry(tmp_path)
    raw = entry.read_bytes()
    for at in range(len(raw)):
        _never_served(cache, scenario, entry, raw[:at])
