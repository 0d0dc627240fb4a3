"""Net-layer invariant checks for the runtime watchdog.

Every check here is *read-only* over counters the data path already
maintains — registering them costs nothing on the hot path, and a run
without a :class:`~repro.sim.watchdog.Watchdog` registers none.

Checks:

* ``byte_conservation`` — every byte a NIC serialized is delivered,
  dropped by the fabric, or still in flight: ``Σ nic.bytes_tx >=
  Σ nic.bytes_rx + Σ port.dropped_bytes`` at all times, with equality at
  quiescence (final check).
* ``qdisc_accounting`` — per-NIC egress qdisc length and byte backlog
  agree (empty ⇔ zero bytes, never negative); at quiescence every qdisc
  must be drained (a non-empty qdisc with no pending events is stuck
  traffic).
* ``flow_leak`` — at quiescence no transport may hold send or receive
  state: a lingering ``_SendState`` is an unsent window, a lingering
  ``_RecvState`` is a partially received message whose bytes leaked.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.sim.watchdog import Watchdog

Violations = List[Tuple[str, Dict[str, Any]]]


def fabric_dropped_bytes(network) -> int:
    """Bytes tail-dropped across every fabric egress port."""
    iter_ports = getattr(network, "iter_ports", None)
    if iter_ports is None:
        return 0
    return sum(port.dropped_bytes for port in iter_ports())


def in_flight_bytes(cluster: "Cluster") -> int:
    """Bytes serialized by NICs but not yet received nor fabric-dropped.

    The fast-path fabric defers deliveries (and their drop records)
    lazily, so settle every NIC first — the flush applies exactly the
    deliveries packet granularity would have executed by now, keeping the
    periodic bound tight and the quiescence equality exact in both modes.
    """
    nics = [cluster.host(h).nic for h in cluster.host_ids]
    for n in nics:
        n.settle_rx()
    tx = sum(n.bytes_tx for n in nics)
    rx = sum(n.bytes_rx for n in nics)
    return tx - rx - fabric_dropped_bytes(cluster.network)


def progress_probe(cluster: "Cluster"):
    """The stall detector's progress measure for a cluster.

    Message deliveries are the finest-grained externally visible
    progress; lost segments count too, so a lossy-but-recovering run
    (RTO retransmissions under burst loss) is never misread as a stall.
    """
    transports = [cluster.host(h).transport for h in cluster.host_ids]

    def probe() -> float:
        return float(sum(
            t.messages_delivered + t.messages_unrouted + t.segments_lost
            for t in transports
        ))

    return probe


def check_byte_conservation(cluster: "Cluster") -> Violations:
    """In-flight bytes must never go negative (periodic form)."""
    flight = in_flight_bytes(cluster)
    if flight < 0:
        return [(
            f"conservation of bytes violated: in-flight is {flight} "
            "(more bytes received than sent minus dropped)",
            {"in_flight_bytes": flight},
        )]
    return []


def check_byte_conservation_final(cluster: "Cluster") -> Violations:
    """At quiescence every serialized byte must be accounted for."""
    flight = in_flight_bytes(cluster)
    if flight != 0:
        return [(
            f"{flight} bytes unaccounted at quiescence "
            "(tx != rx + fabric drops with an empty event queue)",
            {"in_flight_bytes": flight},
        )]
    return []


def check_qdisc_accounting(cluster: "Cluster") -> Violations:
    """Per-NIC qdisc length and byte backlog must agree (periodic)."""
    out: Violations = []
    for hid in cluster.host_ids:
        qdisc = cluster.host(hid).nic.qdisc
        n = len(qdisc)
        backlog = qdisc.backlog_bytes
        if n < 0 or backlog < 0 or (n == 0) != (backlog == 0):
            out.append((
                f"qdisc accounting skew on {hid}: "
                f"{n} segments but {backlog} backlog bytes",
                {"host": hid, "segments": n, "backlog_bytes": backlog},
            ))
    return out


def check_qdisc_drained_final(cluster: "Cluster") -> Violations:
    """At quiescence every egress qdisc must be empty."""
    out: Violations = []
    for hid in cluster.host_ids:
        nic = cluster.host(hid).nic
        n = len(nic.qdisc)
        if n > 0:
            out.append((
                f"qdisc on {hid} still holds {n} segments at quiescence "
                "(stuck traffic: nothing left to drain it)",
                {"host": hid, "segments": n,
                 "backlog_bytes": nic.qdisc.backlog_bytes},
            ))
    return out


def check_flow_leaks_final(cluster: "Cluster") -> Violations:
    """At quiescence no transport may hold send or receive state."""
    out: Violations = []
    for hid in cluster.host_ids:
        transport = cluster.host(hid).transport
        for flow, state in transport._send_states.items():
            out.append((
                f"send state leaked on {hid} for flow {flow}: "
                f"{len(state.pending)} pending, {state.in_flight} in flight",
                {"host": hid, "flow": str(flow),
                 "pending": len(state.pending), "in_flight": state.in_flight},
            ))
        for msg_id, state in transport._recv_states.items():
            out.append((
                f"receive state leaked on {hid} for message {msg_id}: "
                f"{state.received} of {state.message.size} bytes arrived, "
                "remainder lost without a drop record",
                {"host": hid, "msg_id": msg_id,
                 "received": state.received, "size": state.message.size},
            ))
    return out


def register_net_checks(watchdog: "Watchdog", cluster: "Cluster") -> None:
    """Wire every net-layer invariant into a watchdog (and the stall
    detector's progress probe)."""
    watchdog.register(
        "byte_conservation", lambda: check_byte_conservation(cluster)
    )
    watchdog.register(
        "byte_conservation",
        lambda: check_byte_conservation_final(cluster),
        final_only=True,
    )
    watchdog.register(
        "qdisc_accounting", lambda: check_qdisc_accounting(cluster)
    )
    watchdog.register(
        "qdisc_accounting",
        lambda: check_qdisc_drained_final(cluster),
        final_only=True,
    )
    watchdog.register(
        "flow_leak", lambda: check_flow_leaks_final(cluster), final_only=True
    )
    watchdog.set_progress_probe(progress_probe(cluster))
