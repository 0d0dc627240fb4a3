#!/usr/bin/env python
"""Diagnosing contention with flow telemetry.

An operator's view: you suspect a host is a PS hotspot.  Collect the flow
completion times and job completion times, read the switch's peak
backlog toward the host, compare FIFO against TensorLights, and render
the evidence as ASCII charts — no plotting stack required.

Run:  python examples/contention_diagnosis.py
"""

import numpy as np

from repro import Cluster, DLApplication, JobSpec, Simulator, TensorLights, TLMode
from repro.analysis import Bar, render_barchart
from repro.dl.model_zoo import get_model
from repro.net.link import Link
from repro.telemetry.flows import FlowCollector


def run(tls: bool, seed: int = 6):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=9, link=Link(rate=2.5e9 / 8),
                      window_jitter=0.5, switch_buffer_bytes=2e6, rto=0.02)
    flows = FlowCollector.install(cluster.network)
    controller = TensorLights(cluster, mode=TLMode.ONE) if tls else None
    model = get_model("resnet32_cifar10")
    workers = [f"h{i:02d}" for i in range(1, 9)]
    apps = []
    for j in range(5):
        spec = JobSpec(f"job{j}", model, n_workers=8, local_batch_size=2,
                       target_global_steps=12 * 8, arrival_time=0.05 * j)
        app = DLApplication(spec, cluster, ps_host="h00", worker_hosts=workers)
        if controller is not None:
            controller.attach(app)
        apps.append(app)
        app.launch()

    sim.run()
    jct = float(np.mean([a.metrics.jct for a in apps]))
    # gradient incast into the PS host queues at its switch egress port
    backlog = cluster.network.switch.port("h00").max_backlog
    return jct, backlog, flows


def main() -> None:
    results = {}
    for label, tls in (("fifo", False), ("tls-one", True)):
        jct, backlog, flows = run(tls)
        results[label] = dict(
            jct=jct,
            backlog=backlog,
            p50=flows.percentile("model_update", 50),
            p99=flows.percentile("model_update", 99),
        )

    print("Diagnosis of the suspected PS hotspot (h00), 5 colocated jobs:\n")
    for metric, title in (
        ("backlog", "peak switch backlog toward h00 (segments)"),
        ("p50", "median model-update FCT (s)"),
        ("p99", "p99 model-update FCT (s)"),
        ("jct", "average JCT (s)"),
    ):
        print(render_barchart(
            [Bar(label, results[label][metric]) for label in results],
            width=40, title=title,
        ))
        print()

    f, t = results["fifo"], results["tls-one"]
    print(f"TensorLights cut the median model-update FCT "
          f"{f['p50'] / t['p50']:.1f}x and average JCT by "
          f"{100 * (1 - t['jct'] / f['jct']):.0f}% — same bytes, different "
          "drain *order* at the PS NIC.")


if __name__ == "__main__":
    main()
