#!/usr/bin/env python
"""A complete research workflow: seed sweep -> CIs -> CSV export.

Shows the study-building APIs end to end: declare a seed x policy grid
as a ``StudySpec``, run it as one ``Campaign`` with a progress callback,
regroup the results by their ``policy`` tag, compute a paired-bootstrap
confidence interval on the normalized JCT (the Figure-5a statistic),
check TLs-RR's fairness with Jain's index, and dump every job to CSV for
external plotting.

Run:  python examples/seed_sweep_analysis.py      (a few seconds)
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Axis, Campaign, ExperimentConfig, Policy, StudySpec
from repro.analysis import bootstrap_ratio_ci, jain_index
from repro.experiments.export import to_csv

SEEDS = tuple(range(11, 16))
POLICIES = (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)


def main() -> None:
    base = ExperimentConfig(
        n_jobs=8, n_workers=10, iterations=10, link_gbps=2.5,
        local_batch_size=2, placement_index=1,
    )
    # Seeds are the outer axis, so every policy's results are in seed order.
    spec = StudySpec(
        name="seed-sweep",
        base=base,
        axes=(Axis("seed", SEEDS), Axis("policy", POLICIES)),
    )

    def progress(event):
        if event.status in ("running", "cached"):
            print(f"  [{event.index + 1:2d}/{event.total}] {event.scenario.label}")

    print(f"Sweeping {len(SEEDS)} seeds x {len(POLICIES)} policies "
          "on the worst placement...")
    outcome = Campaign(progress=progress).run(spec.scenarios())
    by_policy = outcome.by_tag("policy")

    def jcts_for(policy):
        return [res.avg_jct for res in by_policy[policy.value]]

    print("\nmean avg JCT over seeds:")
    for policy in POLICIES:
        print(f"  {policy.value:8s} {np.mean(jcts_for(policy)):.3f} s")

    fifo = jcts_for(Policy.FIFO)
    for policy in (Policy.TLS_ONE, Policy.TLS_RR):
        ci = bootstrap_ratio_ci(jcts_for(policy), fifo)
        print(f"\nnormalized JCT, {policy.value}: {ci}")
        print(f"  (improvement {100 * (1 - ci.estimate):.1f}%; "
              f"significant: {1.0 not in ci})")

    # fairness: Jain's index over per-job JCTs (1.0 = all equal)
    print("\nper-job JCT fairness (Jain's index; higher = fairer):")
    for policy in POLICIES:
        indices = [jain_index(list(res.jcts.values()))
                   for res in by_policy[policy.value]]
        print(f"  {policy.value:8s} {np.mean(indices):.4f}")

    csv_text = to_csv(outcome.results)
    path = Path(tempfile.gettempdir()) / "tensorlights_seed_sweep.csv"
    path.write_text(csv_text)
    print(f"\nwrote {len(csv_text.splitlines()) - 1} job records to {path}")


if __name__ == "__main__":
    main()
