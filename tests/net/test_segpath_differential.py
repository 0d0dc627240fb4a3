"""Differential oracle: the compiled segment path against its Python bodies.

``repro.net._segpath`` implements the per-segment methods of ``NIC``,
``VirtualOutputPort`` and ``Transport`` (and the exact-type ``PFifo``
enqueue and dequeue).  ``tests/net/segpath_reference.py`` keeps the
Python bodies they replaced.  Each generated scenario runs once as
shipped and once with the reference bodies patched in, and the two runs
must agree on the result content hash, on the kernel's logical event
count (``_steps``), its elided-event credit (``_elided``) and its heap
sequence counter (``events._seq``, so every event was scheduled in the
same order), and on every NIC, fabric port, switch and transport
counter, float counters compared bit for bit.

Scenarios cover every policy (FIFO's ``PFifo`` fast path and the other
qdiscs called through their methods), PS, ring and mixed jobs, finite
and unbounded switch buffers (tail drops, RTO retransmits), segment
size, window and jitter, netem loss (the loss-tolerant NIC and its
``_refill``), the fault plans of the fast-path tests, and leaf-spine
fabrics driven directly (final-hop ports at flow granularity, middle
hops at packet granularity, NICs on plain links), and a bare switch with
no drop handler fed segment by segment on exact binary times, where
arrivals tie with service starts.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.export import result_content_hash
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario
from repro.faults.plan import (
    BurstLoss,
    FaultPlan,
    HostCrash,
    NicFlap,
    PSCrash,
    RecoverySpec,
)
from repro.net import NIC
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.packet import Message, Segment
from repro.net.switch import Switch
from repro.net.twotier import TwoTierNetwork
from repro.sim import Simulator

from tests.net import segpath_reference

_PROCEED = RecoverySpec(barrier_mode="proceed")

_FAULTS = st.sampled_from([
    None,
    PSCrash(at=0.3, job="job01", recover_after=0.2),
    HostCrash(at=0.25, host="h03", recover_after=0.3),
    BurstLoss(at=0.1, host="h02", duration=0.3, loss=0.1),
    NicFlap(at=0.1, host="h01", flaps=2, period=0.2, down_time=0.05,
            factor=0.05),
])


def _bits(x):
    """A number's type and exact value (floats compared bit for bit)."""
    return type(x).__name__, float(x).hex() if isinstance(x, float) else x


def nic_counters(nic):
    return tuple(_bits(getattr(nic, name)) for name in (
        "bytes_tx", "bytes_rx", "segments_tx", "segments_rx", "busy_time",
        "_busy_since", "egress_drops", "qdisc_drops", "_tx_busy",
    )) + (len(nic.qdisc),)


def port_counters(port):
    names = ["bytes_tx", "busy_time", "max_backlog", "drops",
             "dropped_bytes", "_queued_bytes"]
    if hasattr(port, "_free_at"):
        names += ["_free_at", "_last_start"]
    return tuple(_bits(getattr(port, name)) for name in names) + (
        len(port._pending) if hasattr(port, "_pending") else len(port._queue),
    )


def transport_counters(transport):
    return tuple(getattr(transport, name) for name in (
        "messages_sent", "messages_delivered", "messages_unrouted",
        "segments_lost", "segments_retransmitted",
    )) + (len(transport._send_states), len(transport._recv_states))


def fabric_state(sim, network):
    """Every kernel and fabric counter of a finished run."""
    for nic in network.nics.values():
        nic.settle_rx()
    ports = [port_counters(p) for p in network.iter_ports()]
    switches = [network.switch.segments_forwarded] if hasattr(
        network, "switch") else []
    return {
        "steps": sim._steps,
        "elided": sim._elided,
        "seq": sim.events._seq,
        "now": _bits(sim.now),
        "nics": {h: nic_counters(n) for h, n in network.nics.items()},
        "ports": ports,
        "switches": switches,
        "transports": {h: transport_counters(t)
                       for h, t in network.transports.items()},
    }


def _run_scenario(sc):
    """The run's outcome and fabric state.  A run that raises (a burst
    loss can drop a NIC's migrated backlog) must raise the same error
    both ways; message ids are process-global, so they are masked."""
    runtime = materialize(sc)
    try:
        result = runtime.run()
    except NetworkError as exc:
        outcome = (type(exc), re.sub(r"msg=\d+", "msg=N", str(exc)))
    else:
        outcome = (result_content_hash(result), result.sim_events)
    return outcome, fabric_state(runtime.sim, runtime.cluster.network)


def _both(run, *args):
    """``run(*args)`` as shipped, then on the reference bodies."""
    compiled = run(*args)
    with segpath_reference.installed():
        assert NIC._tx_done is segpath_reference._NIC._tx_done
        reference = run(*args)
    assert type(NIC.__dict__["_tx_done"]).__name__ == "instancemethod"
    return compiled, reference


@st.composite
def scenarios(draw):
    """Tiny scenarios over the knobs the segment path branches on."""
    architecture = draw(st.sampled_from(list(Architecture)))
    ps = architecture is Architecture.PS
    # DRR and netem target contended PS hosts (the config rejects them
    # for ring jobs).
    policies = list(Policy) if ps else [Policy.FIFO, Policy.TLS_ONE,
                                        Policy.TLS_RR]
    config = ExperimentConfig.tiny(
        iterations=draw(st.sampled_from([2, 3])),
        architecture=architecture,
        policy=draw(st.sampled_from(policies)),
        placement_index=draw(st.sampled_from([1, 2, 4, 5])),
        switch_buffer_bytes=draw(st.sampled_from([None, 4e6, 6e5])),
        # rates and sizes whose quotients round differently under any
        # reassociation (a power-of-two size over 10 Gbit/s would not)
        link_gbps=draw(st.sampled_from([10.0, 3.3, 1.0])),
        segment_bytes=draw(st.sampled_from([64 * 1024, 100_000, 256 * 1024])),
        window_segments=draw(st.sampled_from([2, 8])),
        window_jitter=draw(st.sampled_from([0.0, 0.5])),
        netem_loss=draw(st.sampled_from([0.0, 0.02])) if ps else 0.0,
        seed=draw(st.integers(0, 2**16)),
    )
    fault = draw(_FAULTS) if ps else None
    if fault is None:
        return Scenario(config=config)
    return Scenario(config=config,
                    faults=FaultPlan(faults=(fault,), recovery=_PROCEED))


@settings(deadline=None)
@given(sc=scenarios())
def test_generated_scenarios_match_reference(sc):
    (outcome, state), (ref_outcome, ref_state) = _both(_run_scenario, sc)
    assert outcome == ref_outcome
    assert state == ref_state


def _run_leaf_spine(params):
    """Random transfers over a leaf-spine fabric, delivery by delivery."""
    (n_hosts, n_leaves, rate, buffer_bytes, segment_bytes, window, jitter,
     sends) = params
    sim = Simulator(seed=11)
    hosts = [f"h{i}" for i in range(n_hosts)]
    net = TwoTierNetwork(
        sim, hosts, n_leaves=n_leaves, link=Link(rate=rate, latency=5e-6),
        oversubscription=2.0, segment_bytes=segment_bytes,
        window_segments=window, window_jitter=jitter,
        buffer_bytes=buffer_bytes, rto=0.01,
    )
    deliveries = []
    for h in hosts:
        net.transport(h).listen(9000, lambda m, _h=h: deliveries.append(
            (_bits(sim.now), _h, m.flow.src_host, m.size)))

    def send(src, dst, port, size):
        net.transport(src).send_message(
            Message(flow=FlowKey(src, port, dst, 9000), size=size))

    for i, (at, src, dst, size) in enumerate(sends):
        src, dst = hosts[src % n_hosts], hosts[dst % n_hosts]
        if src != dst:
            sim.schedule(at, send, (src, dst, 100 + i, size))
    sim.run()
    return deliveries, fabric_state(sim, net)


_SEND = st.tuples(
    st.sampled_from([0.0, 0.001, 0.004, 0.02]),
    st.integers(0, 7), st.integers(0, 7),
    st.integers(1, 9000),
)


@settings(deadline=None)
@given(params=st.tuples(
    st.integers(3, 6), st.integers(1, 3),
    st.sampled_from([1e6, 1.3e6, 7e5 / 3]),
    st.sampled_from([None, 3000, 6000.0]),
    st.sampled_from([1000, 1337]), st.integers(1, 4),
    st.sampled_from([0.0, 0.25]),
    st.lists(_SEND, min_size=1, max_size=10),
))
def test_leaf_spine_transfers_match_reference(params):
    compiled, reference = _both(_run_leaf_spine, params)
    assert compiled == reference


def _run_bare_switch(params):
    """Segments straight into NICs on a bare switch with no drop handler.

    Rates, sizes and latencies are exact binary fractions, so arrivals
    tie with service starts and the port's same-time purge order counts.
    """
    buffer_bytes, latency, sends = params
    sim = Simulator(seed=3)
    switch = Switch(sim, buffer_bytes=buffer_bytes)
    nics = {h: NIC(sim, h, rate=1024.0) for h in ("h0", "h1", "h2")}
    deliveries = []
    for h, nic in nics.items():
        switch.attach_nic(nic, Link(rate=1024.0, latency=latency))
        nic.on_receive = lambda seg, _h=h: deliveries.append(
            (_bits(sim.now), _h, seg.flow.src_host, seg.size))

    def send(src, dst, n_segments, size):
        msg = Message(flow=FlowKey(src, 1, dst, 9), size=n_segments * size)
        for i in range(n_segments):
            nics[src].send(Segment(msg, i, size, i == n_segments - 1))

    for at, src, dst, n_segments, size in sends:
        src, dst = f"h{src}", f"h{dst}"
        if src != dst:
            sim.schedule(at, send, (src, dst, n_segments, size))
    sim.run()
    for nic in nics.values():
        nic.settle_rx()
    return deliveries, {
        "steps": sim._steps, "elided": sim._elided, "seq": sim.events._seq,
        "nics": [nic_counters(n) for n in nics.values()],
        "ports": [port_counters(p) for p in switch.iter_ports()],
        "forwarded": switch.segments_forwarded,
    }


@settings(deadline=None)
@given(params=st.tuples(
    st.sampled_from([None, 256, 512, 768.0]),
    st.sampled_from([0.0, 0.125, 0.25]),
    st.lists(st.tuples(
        st.sampled_from([0.0, 0.125, 0.25, 0.5]),
        st.integers(0, 2), st.integers(0, 2),
        st.integers(1, 3), st.sampled_from([128, 192, 256])),
        min_size=1, max_size=8),
))
# h1's second segment reaches an idle port exactly when h2's does, less
# than one latency after the port's previous service began: the purge
# must pop that idle entry, or h2's segment overflows the buffer.
@example(params=(256, 0.25, [(0.0, 1, 0, 1, 128), (0.125, 1, 0, 1, 192),
                             (0.125, 2, 0, 1, 192)]))
def test_bare_switch_without_drop_handler_matches_reference(params):
    compiled, reference = _both(_run_bare_switch, params)
    assert compiled == reference
