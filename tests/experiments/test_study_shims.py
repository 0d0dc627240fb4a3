"""Pin the study-engine ablation tables byte-identical to the old ones.

The legacy hand-rolled A1/A2/A4 grid code is reproduced inline here
(frozen as it stood before the study-engine migration) and its rendered
tables compared byte-for-byte against what
:mod:`repro.experiments.study.ablations` emits for the same fixed-seed
inputs.  Any drift in titles, headers, row values, or formatting fails.
"""

import numpy as np

from repro.experiments import Campaign, ExperimentConfig, Policy, Scenario
from repro.experiments.report import TextTable
from repro.experiments.study import ablations

TINY = ExperimentConfig.tiny()


def _run(scenarios):
    return Campaign().run(scenarios).results


def _render(title, headers, rows):
    table = TextTable(headers, title=title)
    for row in rows:
        table.add_row(*row)
    return table.render()


# -- frozen pre-migration reference implementations ---------------------------


def _legacy_bands(base, band_counts):
    cfg = base.replace(placement_index=1)
    scenarios = [Scenario(config=cfg.replace(policy=Policy.FIFO))]
    scenarios += [
        Scenario(config=cfg.replace(policy=Policy.TLS_ONE, max_bands=n))
        for n in band_counts
    ]
    fifo, *tls = _run(scenarios)
    rows = [("fifo", "-", fifo.avg_jct, 1.0,
             float(np.median(fifo.barrier_wait_variances())))]
    for n, res in zip(band_counts, tls):
        rows.append(
            ("tls-one", n, res.avg_jct, res.avg_jct / fifo.avg_jct,
             float(np.median(res.barrier_wait_variances())))
        )
    return _render(
        "A1: priority-band budget (placement #1)",
        ["Policy", "Bands", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows,
    )


def _legacy_interval(base, intervals):
    cfg = base.replace(placement_index=1)
    scenarios = [
        Scenario(config=cfg.replace(policy=Policy.FIFO)),
        Scenario(config=cfg.replace(policy=Policy.TLS_ONE)),
    ]
    scenarios += [
        Scenario(config=cfg.replace(policy=Policy.TLS_RR, tls_interval=T))
        for T in intervals
    ]
    fifo, one, *rr = _run(scenarios)

    def spread(res):
        return float(np.std(list(res.jcts.values())))

    rows = [
        ("fifo", "-", fifo.avg_jct, 1.0, spread(fifo)),
        ("tls-one", "-", one.avg_jct, one.avg_jct / fifo.avg_jct,
         spread(one)),
    ]
    for T, res in zip(intervals, rr):
        rows.append(
            ("tls-rr", T, res.avg_jct, res.avg_jct / fifo.avg_jct,
             spread(res))
        )
    return _render(
        "A2: TLs-RR rotation interval T (placement #1)",
        ["Policy", "T (s)", "Avg JCT (s)", "Norm JCT", "JCT spread (std)"],
        rows,
    )


def _legacy_fair_queue(base):
    cfg = base.replace(placement_index=1)
    policies = (Policy.FIFO, Policy.DRR, Policy.TLS_ONE)
    results = _run([Scenario(config=cfg.replace(policy=p)) for p in policies])
    fifo = results[0]
    rows = [
        (policy.value, res.avg_jct, res.avg_jct / fifo.avg_jct,
         float(np.median(res.barrier_wait_variances())))
        for policy, res in zip(policies, results)
    ]
    return _render(
        "A4: fair queueing is not enough (placement #1)",
        ["Policy", "Avg JCT (s)", "Norm JCT", "Median barrier var"],
        rows,
    )


# -- byte-identity pins -------------------------------------------------------


def test_bands_shim_byte_identical():
    result = ablations.bands(TINY, band_counts=(1, 4))
    assert result.render() == _legacy_bands(TINY, (1, 4))


def test_interval_shim_byte_identical():
    result = ablations.interval(TINY, intervals=(0.5, 2.0))
    assert result.render() == _legacy_interval(TINY, (0.5, 2.0))


def test_fair_queue_shim_byte_identical():
    result = ablations.fair_queue(TINY)
    assert result.render() == _legacy_fair_queue(TINY)


def test_ablation_result_csv_matches_render_cells():
    result = ablations.fair_queue(TINY)
    csv_lines = result.to_csv().splitlines()
    assert csv_lines[0] == ",".join(result.headers)
    assert len(csv_lines) == 1 + len(result.rows)
