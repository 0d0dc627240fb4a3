"""Metric snapshots read at run end, pinned scenario by scenario.

Every count in a snapshot is read once, at run end, from the counter of
the component that owns it, and every barrier wait from its job's
``BarrierSeries`` (``scrape_cluster``); only message latencies are
observed during the run, by a delivery tap.  Each case below runs with
metrics on and compares a SHA-256 digest of its
``json.dumps(snapshot, sort_keys=True)`` against a pinned value, so a
count that silently stops being read — or starts being read under a
different condition — moves a digest.  Each case also runs with metrics
off and must simulate the same run.

The cases cover every family that used to be pushed from the data path:
switch tail drops, TLs-RR band rotation, netem egress drops, a PS crash
under TLs-One with netem loss, a host crash with band re-installation,
async and all-reduce jobs, a qdisc head drop, reconcile actions, and
watchdog violations.
"""

import hashlib
import json
import warnings

import pytest

from repro.cluster import Cluster
from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, Policy, Scenario
from repro.experiments.config import Architecture
from repro.experiments.export import result_content_hash
from repro.experiments.runtime import materialize
from repro.faults import FaultPlan, HostCrash, PSCrash, RecoverySpec
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.packet import Message, Segment
from repro.sim import Simulator, Watchdog
from repro.telemetry import MetricsRegistry
from repro.telemetry.scrape import scrape_cluster, tap_message_latency

TINY = ExperimentConfig.tiny()
MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)

#: The six families the registry no longer carries: each one duplicated
#: a ``*_total`` gauge read from the same component counter.
REMOVED = ("nic_tx_bytes", "nic_tx_segments", "transport_segments_lost",
           "transport_retransmits", "transport_messages_delivered",
           "switch_port_drops")


def _scenario(scenario, watchdog=None):
    def run(metrics):
        result = materialize(scenario, metrics=metrics, watchdog=watchdog).run()
        return (result.metrics_snapshot, result_content_hash(result),
                result.watchdog_violations)
    return run


def _leak_one_segment(cluster):
    """Seed a byte leak: h00's transport opens the receive state of its
    first arriving segment but never counts that segment's bytes, so the
    message stays a stuck partial receive."""
    nic = cluster.host("h00").nic
    receive = nic.on_receive
    leaked = False

    def leak_first(seg):
        nonlocal leaked
        if not leaked:
            leaked = True
            seg = Segment(seg.message, seg.index, 0, seg.is_last)
        receive(seg)

    nic.on_receive = leak_first


def _leaked_run(metrics):
    """The seeded byte leak in warn mode: the starved job never finishes,
    so the run ends in an error and the snapshot is scraped by hand."""
    rt = materialize(Scenario(config=MICRO), metrics=metrics, watchdog="warn")
    _leak_one_segment(rt.cluster)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConfigError, match="did not finish"):
            rt.run()
    snapshot = None
    if metrics:
        scrape_cluster(rt.metrics, rt.cluster, rt.controller,
                       [a.metrics for a in rt.apps], watchdog=rt.watchdog)
        snapshot = rt.metrics.snapshot()
    # Message ids come from a process-wide counter, so compare the
    # violations without them.
    violations = [(v.check, v.t, v.data["host"], v.data["received"])
                  for v in rt.watchdog.violations]
    return snapshot, rt.sim.steps_executed, violations


def _qdisc_head_drop(metrics):
    """``tc class del`` head-drops a class's backlog on h00's NIC; the
    transport retransmits the segments through the default class."""
    from repro.net.qdisc import HTBQdisc, PortFilter

    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=2, link=Link(rate=1000.0, latency=0.0),
                      segment_bytes=100, window_segments=8, rto=0.05)
    registry = MetricsRegistry()
    if metrics:
        tap_message_latency(registry, cluster.network)
    filt = PortFilter()
    filt.add_match(1, 10)
    htb = HTBQdisc(filter=filt, default_classid=20)
    htb.add_class(1, rate=1000.0, ceil=1000.0)
    htb.add_class(10, rate=1000.0, ceil=1000.0, parent=1)
    htb.add_class(20, rate=1000.0, ceil=1000.0, parent=1)
    cluster.host("h00").nic.set_qdisc(htb)
    got = []
    cluster.host("h01").transport.listen(6000, got.append)
    cluster.host("h00").transport.send_message(
        Message(flow=FlowKey("h00", 1, "h01", 6000), size=5000)
    )
    sim.schedule(0.5, htb.del_class, (10,))
    sim.run()
    assert [m.size for m in got] == [5000] and htb.drops > 0
    scrape_cluster(registry, cluster)
    return registry.snapshot(), sim.steps_executed, []


def _reconcile(metrics):
    """Controller churn without a run: a host goes down and comes back,
    a job fails, someone wipes tc — reconcile repairs and reports."""
    from repro.dl import DLApplication, JobSpec
    from repro.dl.model_zoo import ModelSpec
    from repro.tensorlights import TensorLights, TLMode
    from repro.tensorlights.invariants import register_tensorlights_checks

    sim = Simulator(seed=1)
    watchdog = Watchdog(sim, "warn")
    cluster = Cluster(sim, n_hosts=5, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    tl = TensorLights(cluster, mode=TLMode.ONE, interval=1.0)
    register_tensorlights_checks(watchdog, tl)
    model = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.01)
    apps = []
    for j in range(3):
        spec = JobSpec(f"j{j}", model, n_workers=4, target_global_steps=30,
                       arrival_time=0.01 * j)
        app = DLApplication(spec, cluster, ps_host="h00",
                            worker_hosts=["h01", "h02", "h03", "h04"])
        apps.append(app)
        tl.attach(app)
    tl.host_down("h00")
    tl.host_up("h00")
    apps[0].failed = True
    tl._hosts["h00"].tc.remove()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert tl.reconcile() == 1
        tl._hosts["h00"].tc.remove()
        assert tl.reconcile() == 1
    watchdog.finalize()
    registry = MetricsRegistry()
    scrape_cluster(registry, cluster, tl, watchdog=watchdog)
    snapshot = registry.snapshot()
    scrape_cluster(registry, cluster, tl, watchdog=watchdog)  # idempotent
    assert registry.snapshot() == snapshot
    return (snapshot, tl.reconfigurations,
            [v.to_dict() for v in watchdog.violations])


CASES = {
    "fifo-shallow-buffer": _scenario(
        Scenario(config=TINY.replace(
            iterations=3, switch_buffer_bytes=2 * TINY.segment_bytes)),
        watchdog="warn"),
    "tls-rr": _scenario(Scenario(config=TINY.replace(policy=Policy.TLS_RR))),
    "netem-loss": _scenario(Scenario(config=TINY.replace(netem_loss=0.02))),
    "tls-one-ps-crash": _scenario(
        Scenario(
            config=TINY.replace(policy=Policy.TLS_ONE, netem_loss=0.01,
                                switch_buffer_bytes=None, placement_index=1),
            faults=FaultPlan(
                (PSCrash(job="job00", at=0.3, recover_after=0.3),),
                recovery=RecoverySpec(barrier_mode="proceed")),
        ),
        watchdog="warn"),
    "host-crash": _scenario(
        Scenario(
            config=TINY.replace(n_jobs=2, n_workers=2, iterations=6,
                                policy=Policy.TLS_ONE),
            faults=FaultPlan(
                faults=(HostCrash(host="h00", at=0.3, recover_after=0.4),),
                recovery=RecoverySpec(worker_timeout=0.2),
                reconcile_interval=0.2),
        ),
        watchdog="warn"),
    "async": _scenario(Scenario(config=TINY.replace(sync=False))),
    "allreduce": _scenario(Scenario(config=TINY.replace(
        architecture=Architecture.ALLREDUCE))),
    "qdisc-head-drop": _qdisc_head_drop,
    "tl-reconcile": _reconcile,
    "leaked-segment": _leaked_run,
}

#: ``sha256(json.dumps(snapshot, sort_keys=True))`` per case, captured
#: while the data path still pushed these counts and with the six
#: duplicate families removed: reading them at run end kept every row.
#: ``allreduce`` was re-pinned when barrier waits moved to the scrape:
#: it gained one ``dl_barrier_wait_seconds`` histogram per ring job,
#: which the PS-only push never recorded, and nothing else moved.
DIGESTS = {
    "allreduce":
        "f7cbe1bfecf24f53c2ba2400ea8536746c8865021d87bd7f91c27b559f23f93b",
    "async":
        "7aefccecb9efb93a0adc0adf7a92381c419acf914fa80648bd1a60863896c148",
    "fifo-shallow-buffer":
        "028ed214309adf8d7b14ab65bc036a859201f6c70f8da71f8824f65a84f38748",
    "host-crash":
        "35aeef2451456aa9f47c0e31a449742eb42aed2e297353ba9a55cf29c016fd26",
    "leaked-segment":
        "9ce1e0f4684497ca615cc4f273fcfd34ed5ab1eaa5d62f6d5380b12933142873",
    "netem-loss":
        "5fff9f39b9ff9afd7def899e346e1b36c47309f5d1dc3bbf2eda70ca62489266",
    "qdisc-head-drop":
        "9265e20126ed8ff731d30cd5e155da1d3a8694773b01695d257b1657eb3607c8",
    "tl-reconcile":
        "acf45e6aebec8dc4381150e9196a0c86a36f3a47bff34f9e8d640594dd6cf2cb",
    "tls-one-ps-crash":
        "e64391c516972acd3710287444ec776cdb309f06b601a98562b5a6dd1194f510",
    "tls-rr":
        "94ca8d68b265f511ec6d6d6633fb89cb244605e507e16a27d894690ab6542ba0",
}


def _digest(snapshot) -> str:
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_matches_pinned_digest(name):
    snapshot, identity, violations = CASES[name](True)
    families = {key.split("{", 1)[0]
                for part in snapshot.values() for key in part}
    assert not families & set(REMOVED)
    assert _digest(snapshot) == DIGESTS[name]
    _, plain_identity, plain_violations = CASES[name](False)
    assert identity == plain_identity
    assert violations == plain_violations


def test_cases_cover_every_count_read_at_run_end():
    """Each count that used to be pushed is non-zero in some case."""
    seen = set()
    for run in CASES.values():
        snapshot = run(True)[0]
        seen |= {key.split("{", 1)[0]
                 for key, value in snapshot["counters"].items() if value}
    assert {"nic_egress_drops", "nic_qdisc_drops", "tl_band_reassignments",
            "tl_reconcile_actions", "watchdog_violations",
            "watchdog_violations_total"} <= seen


@pytest.mark.parametrize("arch", [Architecture.ALLREDUCE, Architecture.MIXED])
def test_ring_jobs_export_their_barrier_waits(arch):
    """Every job's recorded waits reach the snapshot, ring jobs included."""
    result = materialize(Scenario(config=TINY.replace(architecture=arch)),
                         metrics=True).run()
    hists = result.metrics_snapshot["histograms"]
    rings = [f"job{j:02d}" for j in sorted(result.config.allreduce_jobs())]
    assert rings
    for job in rings:
        waits = result.metrics[job].barriers.waits()
        assert waits
        assert hists[f"dl_barrier_wait_seconds{{job={job}}}"]["count"] == len(waits)
