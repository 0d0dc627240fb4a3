"""Ablations A1-A10 plus the declarative study engine timings.

The A-tables come from :mod:`repro.experiments.study.ablations`; the
trailing benchmarks time the study engine itself —
grid generation from the component registry, and the ranked
component-impact study end to end through one campaign.
"""

import numpy as np
from conftest import run_once

from repro.experiments.study import ablations


def test_a1_priority_band_budget(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.bands(bench_config, campaign=bench_campaign, band_counts=(1, 2, 6)))
    print()
    print(result.render())
    # More bands help (monotone-ish): 6 bands beat 1 band on JCT.
    by_bands = {row[1]: row[3] for row in result.rows if row[0] == "tls-one"}
    assert by_bands[6] < by_bands[1]


def test_a2_rotation_interval(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.interval(bench_config, campaign=bench_campaign, intervals=(0.5, 1.5, 4.0)))
    print()
    print(result.render())
    rows = {(r[0], r[1]): r for r in result.rows}
    # Very fast rotation is fairer (smaller JCT spread) than TLs-One.
    fastest = min(r[1] for r in result.rows if r[0] == "tls-rr")
    assert rows[("tls-rr", fastest)][4] < rows[("tls-one", "-")][4]


def test_a3_transport_granularity(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.transport(bench_config, campaign=bench_campaign))
    print()
    print(result.render())
    # TensorLights never makes things worse, at any granularity.
    assert all(row[3] < 1.05 for row in result.rows)


def test_a4_fair_queueing_is_not_enough(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.fair_queue(bench_config, campaign=bench_campaign))
    print()
    print(result.render())
    norm = {row[0]: row[2] for row in result.rows}
    # DRR does not recover the TLs improvement.
    assert norm["tls-one"] < norm["drr"] - 0.05


def test_a5_ps_aware_scheduling(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.ps_aware(bench_config, campaign=bench_campaign))
    print()
    print(result.render())
    by_label = {row[0]: row for row in result.rows}
    rand = by_label["random (oblivious)"]
    aware = by_label["ps-aware (spread)"]
    # The PS-aware scheduler strictly reduces colocation and JCT.
    assert aware[2] < rand[2]
    assert aware[3] <= rand[3] * 1.02


def test_a6_rate_control_loses_utilization(benchmark, bench_config, bench_campaign):
    result = run_once(benchmark, lambda: ablations.rate_control(bench_config, campaign=bench_campaign, allocation_errors=(1.0, 0.6)))
    print()
    print(result.render())
    by_acc = {row[1]: row[3] for row in result.rows if row[0] == "rate-control"}
    tls = [row[3] for row in result.rows if row[0].startswith("tls-one")][0]
    # Under-estimated allocations are strictly worse, and even a perfect
    # static allocation does not beat work-conserving priorities.
    assert by_acc["60%"] > by_acc["100%"]
    assert tls <= by_acc["100%"] + 0.02


def test_a7_async_training(benchmark, bench_config, bench_campaign):
    cfg = bench_config.replace(iterations=max(6, bench_config.iterations // 3))
    result = run_once(benchmark, lambda: ablations.async_mode(cfg, campaign=bench_campaign))
    print()
    print(result.render())
    norm = {row[0]: row[2] for row in result.rows}
    # TensorLights never hurts async jobs.
    assert norm["tls-one"] < 1.05
    assert norm["tls-rr"] < 1.05


def test_a8_multi_ps_sharding(benchmark, bench_config, bench_campaign):
    cfg = bench_config.replace(iterations=max(8, bench_config.iterations // 2))
    result = run_once(benchmark, lambda: ablations.multi_ps(cfg, campaign=bench_campaign))
    print()
    print(result.render())
    # Colocated shards: contention unchanged, TensorLights still helps.
    assert all(row[3] < 0.95 for row in result.rows)


def test_a9_compression_composes_with_tensorlights(benchmark, bench_config, bench_campaign):
    cfg = bench_config.replace(iterations=max(8, bench_config.iterations // 2))
    result = run_once(benchmark, lambda: ablations.compression(cfg, campaign=bench_campaign))
    print()
    print(result.render())
    norm = {(r[0], r[1]): r[3] for r in result.rows}
    # compression alone helps; TLs helps again on top of compression
    assert norm[("4x", "fifo")] < norm[("none", "fifo")]
    assert norm[("4x", "tls-one")] <= norm[("4x", "fifo")] + 0.02
    assert norm[("none", "tls-one")] < norm[("none", "fifo")]


def test_a10_adaptive_matches_static(benchmark, bench_config):
    cfg = bench_config.replace(iterations=max(8, bench_config.iterations // 2))
    result = run_once(benchmark, lambda: ablations.adaptive(cfg))
    print()
    print(result.render())
    by_kind = {row[0]: row for row in result.rows}
    # adaptive recovers most of static TLs-One's improvement
    static_gain = 1.0 - by_kind["static"][2]
    adaptive_gain = 1.0 - by_kind["adaptive"][2]
    assert adaptive_gain > 0.5 * static_gain


def test_study_grid_generation(benchmark, bench_config):
    """Time pure grid expansion (no simulation): spec -> content keys."""
    from repro.experiments.study import StudySpec, get_component

    def expand():
        spec = StudySpec(
            name="bench-grid",
            base=bench_config,
            axes=(get_component("bands").axis(),
                  get_component("rotation").axis(),
                  get_component("window_jitter").axis()),
            seeds=(1, 2, 3),
        )
        return spec.keys()

    keys = benchmark(expand)
    assert len(keys) == 5 * 4 * 3 * 3
    assert len(set(keys)) == len(keys)  # every point distinct


def test_study_impact_ranked(benchmark, bench_config, bench_campaign):
    """Time the ranked component-impact study end to end (one campaign)."""
    from repro.experiments.study import run_study

    cfg = bench_config.replace(iterations=max(6, bench_config.iterations // 3))
    report = run_once(benchmark, lambda: run_study(
        cfg,
        components=("bands", "rotation", "slow_start"),
        seeds=(cfg.seed, cfg.seed + 1),
        campaign=bench_campaign,
    ))
    print()
    print(report.render())
    assert {i.component for i in report.impacts} == {
        "bands", "rotation", "slow_start",
    }
    for impact in report.impacts:
        assert impact.jct_vs_default.low <= impact.jct_vs_default.high
