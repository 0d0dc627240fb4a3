"""Tests for the figure generators (tiny scale — shape of the plumbing,
not of the physics; the benchmarks assert the paper shapes at full scale)."""

import pytest

from repro.experiments import Campaign, ExperimentConfig, Policy
from repro.experiments.figures import (
    fig2, fig3, fig4, fig5a, fig5b, fig6, robustness, table1, table2,
)

TINY = ExperimentConfig.tiny()


def test_table1_lists_all_eight():
    result = table1.generate()
    assert len(result.rows) == 8
    text = result.render()
    assert "5, 16" in text and "7, 7, 7" in text


def test_fig2_runs_and_renders():
    result = fig2.generate(TINY, placements=(1, 8))
    assert set(result.avg_jcts) == {1, 8}
    assert result.performance_gap >= 0.0
    text = result.render()
    assert "Figure 2" in text and "Performance gap" in text


def test_fig3_ratios_and_render():
    result = fig3.generate(TINY)
    assert result.heavy == 1 and result.mild == 8
    assert result.avg_wait_ratio > 0
    assert result.variance_ratio > 0
    assert "3.71x" in result.render()


def test_fig4_spans_and_overlap():
    result = fig4.generate(TINY.replace(iterations=4))
    for policy in (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR):
        spans = result.spans[policy]
        assert len(spans) == 2
        for s in spans:
            assert s.last >= s.first
        assert result.overlap(policy) >= 0.0
    assert "Figure 4" in result.render()


def test_fig5a_normalization_consistency():
    result = fig5a.generate(TINY, placements=(1,))
    norm = result.normalized(1, Policy.TLS_ONE)
    assert set(norm) == set(result.results[1][Policy.FIFO].jcts)
    assert all(v > 0 for v in norm.values())
    # self-normalization sanity: FIFO normalized by FIFO is exactly 1
    self_norm = result.normalized(1, Policy.FIFO)
    assert all(v == pytest.approx(1.0) for v in self_norm.values())
    assert "Figure 5a" in result.render()


def test_fig5b_batches_and_render():
    result = fig5b.generate(TINY, batch_sizes=(2, 8))
    assert set(result.results) == {2, 8}
    # larger batch means more compute per iteration -> larger FIFO JCT
    assert (
        result.results[8][Policy.FIFO].avg_jct
        > result.results[2][Policy.FIFO].avg_jct
    )
    assert "Figure 5b" in result.render()


def test_fig6_reductions_and_render():
    result = fig6.generate(TINY)
    for policy in (Policy.TLS_ONE, Policy.TLS_RR):
        r = result.variance_reduction(policy, "median")
        assert -10.0 < r <= 1.0
    assert "Figure 6" in result.render()


def test_table2_normalized_utilization():
    # tiny runs finish in ~1 s, so sample fast enough for the window
    result = table2.generate(TINY.replace(sample_interval=0.05))
    fifo_self = result.normalized(Policy.FIFO, "cpu", "worker")
    assert fifo_self == pytest.approx(1.0)
    for _, series, kind in table2.ROWS:
        v = result.normalized(Policy.TLS_ONE, series, kind)
        assert v > 0
    assert "Table II" in result.render()


def test_utilization_report_tiny():
    from repro.experiments.figures import utilization

    result = utilization.generate(TINY.replace(sample_interval=0.05))
    # self-normalization sanity, and every row computable at tiny scale
    assert result.normalized(Policy.FIFO, "net_out", "all") == pytest.approx(1.0)
    for _, series, kind, _ in utilization.ROWS:
        assert result.utilization(Policy.FIFO, series, kind) >= 0.0
        assert result.normalized(Policy.TLS_ONE, series, kind) > 0.0
        assert result.normalized(Policy.TLS_RR, series, kind) > 0.0
    text = result.render()
    assert "Result #3" in text and "direction" in text
    assert result.snapshots == {}  # not collected by default


def test_utilization_collect_metrics_keys_snapshots_by_scenario():
    from repro.experiments.figures import utilization

    result = utilization.generate(
        TINY.replace(sample_interval=0.05), collect_metrics=True
    )
    # one per policy (distinct hashes) plus the campaign-level snapshot
    assert len(result.snapshots) == 4
    assert "campaign" in result.snapshots
    campaign = result.snapshots.pop("campaign")
    assert campaign["counters"]["campaign_scenarios_total{status=ok}"] == 3.0
    for snap in result.snapshots.values():
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]  # the hot paths actually reported


def test_fct_tails_generator():
    from repro.experiments.figures import fct

    result = fct.generate(TINY)
    for policy in (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR):
        assert result.percentile(policy, 50) > 0
        assert result.tail_ratio(policy) >= 1.0
    text = result.render()
    assert "flow completion times" in text


def test_fig1_workflow_protocol():
    from repro.experiments.figures import fig1

    result = fig1.generate(TINY, n_workers=3, iterations=3)
    result.verify_protocol()
    assert len(result.events) == 2 * 3 * 3
    assert "workflow trace" in result.render()


def test_robustness_report_mode_keeps_every_campaign_setting():
    """Forcing failure-report mode must not drop the campaign's settings."""
    camp = Campaign(observe_metrics=True)
    result = robustness.generate(TINY, losses=(0.0,), policies=(Policy.FIFO,),
                                 campaign=camp)
    assert result.results[(Policy.FIFO, 0.0, False)].metrics_snapshot
    assert camp.on_failure == "raise"  # the caller's campaign is left alone
