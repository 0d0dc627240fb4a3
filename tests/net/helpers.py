"""Shared builders for network tests."""

from types import SimpleNamespace

from repro.net.addressing import FlowKey
from repro.net.invariants import check_flow_leaks_final
from repro.net.packet import Message, Segment


def flow(src="a", sport=5000, dst="b", dport=6000) -> FlowKey:
    return FlowKey(src, sport, dst, dport)


def seg(size=1000, sport=5000, index=0, is_last=True, dst="b", dport=6000, src="a") -> Segment:
    msg = Message(flow=FlowKey(src, sport, dst, dport), size=size)
    return Segment(msg, index, size, is_last)


def segs_of_message(size, segment_bytes, sport=5000):
    from repro.net.packet import segment_message

    msg = Message(flow=flow(sport=sport), size=size)
    return segment_message(msg, segment_bytes)


def transport_state(network) -> list:
    """The send and receive state the watchdog's quiescence flow-leak
    check reports on a bare network: one entry per open flow or partial
    message."""
    hosts = {hid: SimpleNamespace(transport=t) for hid, t in network.transports.items()}
    return check_flow_leaks_final(
        SimpleNamespace(host_ids=list(hosts), host=hosts.__getitem__)
    )
