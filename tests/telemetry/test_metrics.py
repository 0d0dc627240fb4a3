"""Tests for the per-run metrics registry and its end-of-run scrape."""

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, Policy, Scenario
from repro.experiments.runtime import execute_scenario, materialize
from repro.telemetry import Counter, Histogram, MetricsRegistry, scrape_cluster

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


# ---------------------------------------------------------------- instruments


def test_counter_increments_and_rejects_decrease():
    c = Counter("n", ())
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ConfigError):
        c.inc(-1.0)


def test_histogram_observe_and_snapshot_dict():
    h = Histogram("h", (), buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx(55.5 / 3)
    d = h.to_dict()
    assert d["min"] == 0.5 and d["max"] == 50.0
    # buckets are cumulative upper bounds; everything lands in +Inf
    assert d["buckets"] == {"1": 1, "10": 2, "+Inf": 3}


def test_histogram_reset_overwrites_observations():
    h = Histogram("h", (), buckets=(1.0, 10.0))
    h.observe(50.0)
    h.reset([0.5, 2.0])
    fresh = Histogram("h", (), buckets=(1.0, 10.0))
    fresh.observe(0.5)
    fresh.observe(2.0)
    assert h.to_dict() == fresh.to_dict()
    h.reset()
    assert h.to_dict() == Histogram("h", (), buckets=(1.0, 10.0)).to_dict()


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ConfigError):
        Histogram("h", (), buckets=(10.0, 1.0))
    with pytest.raises(ConfigError):
        Histogram("h", (), buckets=(1.0, 1.0))


def test_empty_histogram_mean_is_zero():
    h = Histogram("h", ())
    assert h.mean == 0.0
    assert "min" not in h.to_dict()


def test_histogram_percentile_interpolates_within_bucket():
    h = Histogram("h", (), buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # target rank 2 of 4 lands at the (1, 2] bucket's cumulative count:
    # interpolate from the previous bound toward 2.0
    p50 = h.percentile(0.5)
    assert 1.0 <= p50 <= 2.0
    # q=1 saturates every bucket -> the observed max, not a bucket bound
    assert h.percentile(1.0) == 3.0
    assert h.percentile(0.0) == 0.5


def test_histogram_percentile_clamps_to_observed_range():
    # One observation deep inside a wide bucket: interpolation alone
    # would answer a bucket-edge estimate; the clamp pins it to the data.
    h = Histogram("h", (), buckets=(100.0,))
    h.observe(7.0)
    assert h.percentile(0.5) == 7.0
    assert h.percentile(0.99) == 7.0


def test_histogram_percentile_inf_bucket_returns_max():
    h = Histogram("h", (), buckets=(1.0,))
    for v in (0.5, 50.0, 60.0):
        h.observe(v)
    # ranks beyond the last bound live in +Inf -> the observed max
    assert h.percentile(0.9) == 60.0


def test_histogram_percentile_empty_and_bad_q():
    h = Histogram("h", ())
    assert h.percentile(0.5) == 0.0
    h.observe(1.0)
    with pytest.raises(ConfigError):
        h.percentile(1.5)
    with pytest.raises(ConfigError):
        h.percentile(-0.1)


# ---------------------------------------------------------------- registry


def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("tx", host="h00")
    b = reg.counter("tx", host="h00")
    c = reg.counter("tx", host="h01")
    assert a is b
    assert a is not c
    assert len(reg) == 2


def test_registry_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("tx")
    with pytest.raises(ConfigError, match="already registered"):
        reg.gauge("tx")


def test_snapshot_schema_and_label_rendering():
    reg = MetricsRegistry()
    reg.counter("drops", host="h00", band="2").inc(3)
    reg.gauge("depth").set(7.0)
    reg.histogram("lat", buckets=(1.0,)).observe(0.5)
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    # labels render sorted by key: band before host
    assert snap["counters"] == {"drops{band=2,host=h00}": 3.0}
    assert snap["gauges"] == {"depth": 7.0}
    assert snap["histograms"]["lat"]["count"] == 1


# ---------------------------------------------------------------- integration


def test_materialize_with_metrics_collects_a_snapshot():
    cfg = MICRO.replace(policy=Policy.TLS_ONE)
    rt = materialize(Scenario(config=cfg), metrics=True)
    result = rt.run()
    snap = result.metrics_snapshot
    assert set(snap) == {"counters", "gauges", "histograms"}
    counters, gauges, hists = (
        snap["counters"], snap["gauges"], snap["histograms"]
    )
    # Scraped NIC and transport totals, the tapped message latencies,
    # the jobs' barrier waits, and the TensorLights controller all
    # reported in.
    assert any(k.startswith("nic_segments_tx_total{") for k in gauges)
    assert any(k.startswith("transport_messages_delivered_total{") for k in gauges)
    assert any(k.startswith("nic_bytes_tx_total{") for k in gauges)
    assert any(k.startswith("tl_band_reassignments{") for k in counters)
    assert any(k.startswith("transport_msg_latency_seconds{") for k in hists)
    assert any(k.startswith("dl_barrier_wait_seconds{") for k in hists)
    assert gauges.get("tl_reconfigurations_total", 0) >= 0
    # A second scrape overwrites what the first read, histograms included.
    scrape_cluster(rt.metrics, rt.cluster, rt.controller,
                   [a.metrics for a in rt.apps])
    assert rt.metrics.snapshot() == snap


def test_metrics_do_not_change_the_simulated_result():
    """The invariant behind materialize(metrics=True): pure observation.

    Content hashes must be identical with the registry on or off — the
    snapshot lives outside the serialized schema.
    """
    from repro.experiments.export import result_content_hash

    plain = execute_scenario(Scenario(config=MICRO))
    observed = materialize(Scenario(config=MICRO), metrics=True).run()
    assert result_content_hash(plain) == result_content_hash(observed)
    assert plain.metrics_snapshot == {}
    assert observed.metrics_snapshot  # non-empty, but hash-invisible

    # A two-segment switch buffer drops under incast: the port counts
    # each drop at admission and notifies the sender at arrival time,
    # the same way with metrics on or off.  Both must simulate the same
    # run.
    shallow = Scenario(config=MICRO.replace(
        n_jobs=3, n_workers=6, switch_buffer_bytes=2 * MICRO.segment_bytes,
    ))
    rt = materialize(shallow)
    plain = rt.run()
    assert rt.cluster.network.switch.total_drops > 0
    observed = materialize(shallow, metrics=True).run()
    assert result_content_hash(plain) == result_content_hash(observed)
