"""End-of-run scraping into the metrics registry.

Every count a snapshot carries lives once, as a plain attribute of the
component that owns the event — the NIC, a switch port, a transport, the
TensorLights controller, the watchdog — and every barrier wait lives in
its job's :class:`~repro.dl.metrics.BarrierSeries`.  Nothing on the data
path pushes it.  After ``sim.run()`` drains, :func:`scrape_cluster`
walks the cluster and the jobs and reads each count into the registry,
the way the paper reads the kernel's own vmstat/ifstat counters.
Scraping is idempotent: a second scrape overwrites every value it read.
The one observation made during the run is message latency, which no
component keeps; :func:`tap_message_latency` takes it from the
network's delivery taps.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Optional, TYPE_CHECKING

from repro.telemetry.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.dl.metrics import JobMetrics
    from repro.net.packet import Message
    from repro.sim.watchdog import Watchdog
    from repro.tensorlights.controller import TensorLights


def tap_message_latency(registry: MetricsRegistry, network) -> None:
    """Observe each delivered message's sender-stamped-to-delivered
    latency into ``transport_msg_latency_seconds{host=<receiver>}`` —
    the message-level RTT stand-in (the transport does not simulate
    per-segment ACKs).  Installed as a delivery tap, so it also sees
    messages that arrive for a port with no listener."""
    by_host: Dict[str, Histogram] = {}

    def observe(msg: "Message") -> None:
        host = msg.flow.dst_host
        hist = by_host.get(host)
        if hist is None:
            hist = by_host[host] = registry.histogram(
                "transport_msg_latency_seconds", host=host
            )
        hist.observe(msg.delivered_at - msg.created_at)

    network.add_delivery_tap(observe)


def scrape_cluster(
    registry: MetricsRegistry,
    cluster: "Cluster",
    controller: Optional["TensorLights"] = None,
    jobs: Iterable["JobMetrics"] = (),
    watchdog: Optional["Watchdog"] = None,
) -> None:
    """Read every component's counts, every job's barrier waits and the
    run's watchdog violations into ``registry``.

    Cumulative totals become gauges.  Event counts that only a run with
    the event produces (drops, band reassignments, reconcile actions,
    violations) become counters, created only when non-zero, except
    ``watchdog_violations_total``, which exists whenever the run has a
    watchdog.  A job with at least one recorded wait gets a
    ``dl_barrier_wait_seconds`` histogram, PS and all-reduce jobs alike.
    Safe on any topology — the single-switch gauges are skipped for
    fabrics without a ``switch`` attribute (e.g. the two-tier network).
    """
    gauge = registry.gauge

    def count(name: str, n: int, **labels: Any) -> None:
        registry.counter(name, **labels).value = float(n)

    for host_id in cluster.host_ids:
        host = cluster.host(host_id)
        nic = host.nic
        if nic is not None:
            gauge("nic_bytes_tx_total", host=host_id).set(nic.bytes_tx)
            gauge("nic_bytes_rx_total", host=host_id).set(nic.bytes_rx)
            gauge("nic_segments_tx_total", host=host_id).set(nic.segments_tx)
            gauge("nic_segments_rx_total", host=host_id).set(nic.segments_rx)
            gauge("nic_busy_seconds_total", host=host_id).set(
                nic.utilization_snapshot()["busy_time"]
            )
            gauge("nic_backlog_segments", host=host_id).set(len(nic.qdisc))
            if nic.egress_drops:
                count("nic_egress_drops", nic.egress_drops, host=host_id)
            if nic.qdisc_drops:
                count("nic_qdisc_drops", nic.qdisc_drops, host=host_id)
            _scrape_qdisc(registry, host_id, nic.qdisc)
        gauge("host_cpu_busy_seconds_total", host=host_id).set(
            host.cpu.utilization_snapshot()
        )

    network = cluster.network
    for host_id, transport in network.transports.items():
        gauge("transport_messages_sent_total", host=host_id).set(
            transport.messages_sent
        )
        gauge("transport_messages_delivered_total", host=host_id).set(
            transport.messages_delivered
        )
        gauge("transport_messages_unrouted_total", host=host_id).set(
            transport.messages_unrouted
        )
        gauge("transport_segments_lost_total", host=host_id).set(
            transport.segments_lost
        )
        gauge("transport_retransmits_total", host=host_id).set(
            transport.segments_retransmitted
        )
        if transport.segments_lost or transport.segments_retransmitted:
            # A sender that only lost segments still exports its (empty)
            # latency histogram next to its loss counts.
            registry.histogram("transport_msg_latency_seconds", host=host_id)

    for port in network.iter_ports():
        gauge("switch_port_drops_total", port=port.host_id).set(port.drops)
    switch = getattr(network, "switch", None)
    if switch is not None:
        for host_id in cluster.host_ids:
            port = switch.port(host_id)
            if port is None:
                continue
            gauge("switch_port_bytes_tx_total", port=host_id).set(port.bytes_tx)
            gauge("switch_port_busy_seconds_total", port=host_id).set(
                port.busy_time
            )
            gauge("switch_port_max_backlog_segments", port=host_id).set(
                port.max_backlog
            )
        gauge("switch_segments_forwarded_total").set(switch.segments_forwarded)
        gauge("switch_drops_total").set(switch.total_drops)

    if controller is not None:
        gauge("tl_reconfigurations_total").set(controller.reconfigurations)
        for host_id, n in controller.band_reassignments.items():
            count("tl_band_reassignments", n, host=host_id)
        if controller.reconcile_actions:
            count("tl_reconcile_actions", controller.reconcile_actions)

    for job in jobs:
        waits = job.barriers.waits()
        if waits:
            registry.histogram(
                "dl_barrier_wait_seconds", job=job.job_id
            ).reset(waits)

    if watchdog is not None:
        checks = Counter(violation.check for violation in watchdog.violations)
        for check, n in checks.items():
            count("watchdog_violations", n, check=check)
        count("watchdog_violations_total", len(watchdog.violations))


def _scrape_qdisc(registry: MetricsRegistry, host_id: str, qdisc) -> None:
    """Per-band HTB occupancy, when the host runs TensorLights' HTB."""
    leaves = getattr(qdisc, "_leaves", None)
    if leaves is None:
        return
    for leaf in leaves:
        registry.gauge(
            "qdisc_band_sent_bytes_total", host=host_id,
            classid=leaf.classid, prio=leaf.prio,
        ).set(leaf.sent_bytes)
        registry.gauge(
            "qdisc_band_backlog_bytes", host=host_id,
            classid=leaf.classid, prio=leaf.prio,
        ).set(leaf.queued_bytes)
    drops = getattr(qdisc, "drops", None)
    if drops is not None:
        registry.gauge("qdisc_drops_total", host=host_id).set(drops)
