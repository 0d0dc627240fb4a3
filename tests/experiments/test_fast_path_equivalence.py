"""Flow-level <-> packet-level equivalence (flow granularity must be exact).

Every host-facing fabric port runs at flow granularity
(``VirtualOutputPort`` + NIC fast-path wiring): it advances bytes
analytically and elides per-segment events.  The whole design rests on
one promise: results are *byte-identical* to packet granularity — same
hashes, same event counts, same counters, at the exact same simulated
times.  These tests check production against the packet-granularity
oracle (:mod:`tests.net.packet_fabric`) on the fig2 contention
scenarios (heavy incast: drops, RTO retransmits, window halving), on
faulted and netem-impaired scenarios, on generated scenarios, and on a
scenario that flips each port between uncontended and incast service
repeatedly.

The pinned hashes were captured from *packet granularity* — regenerating
them to make the flow path pass would defeat the test.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from tests.net.packet_fabric import packet_fabric


def _run_both(sc, **kw):
    """Run ``sc`` in production and on the packet oracle."""
    flow = materialize(sc, **kw).run()
    with packet_fabric():
        runtime = materialize(sc, **kw)
        packet = runtime.run()
    assert runtime.sim.events_elided == 0  # the oracle really ran packets
    return flow, packet


#: fig2 placement scenarios at reduced iteration count (same contention
#: structure as the benchmark configs; tier-1-friendly runtime), hashed
#: at packet granularity.
FIG2_GOLDEN = [
    pytest.param(
        ExperimentConfig(iterations=3, placement_index=1),
        "43079589b08586c7a58110ddcf36c6243df496f92a2e3ef24fdcb32746586a45",
        id="fig2-fifo-p1",
    ),
    pytest.param(
        ExperimentConfig(iterations=3, placement_index=1, policy=Policy.TLS_ONE),
        "826da5c809db43638b29a733b4180369d510fab0fb4cac8722c7828ac2b7e61f",
        id="fig2-tls-one-p1",
    ),
    # Ring all-reduce produces duplicated segments (spurious RTO
    # retransmits), which exercise the port accumulator's mirror of the
    # transport's no-dedup byte-count reassembly.
    pytest.param(
        ExperimentConfig(iterations=3, n_jobs=8, n_workers=8,
                         architecture=Architecture.ALLREDUCE),
        "3e67b105c5d14c3d34504e6a9deeab796dc3521ca64e4a3606723e0499e67dbd",
        id="ring-allreduce",
    ),
]


@pytest.mark.parametrize("config, expected", FIG2_GOLDEN)
def test_fig2_hashes_identical_fast_on_and_off(config, expected):
    fast, slow = _run_both(Scenario(config=config))
    assert result_content_hash(fast) == expected
    assert result_content_hash(slow) == expected
    # sim_events includes elided-event credits: the logical event count
    # must not depend on the granularity either.
    assert fast.sim_events == slow.sim_events


_T = ExperimentConfig.tiny
_PROCEED = RecoverySpec(barrier_mode="proceed")

#: Faulted and netem-impaired tiny scenarios, hashed at packet
#: granularity.  netem sits in the NIC qdisc, before serialization, so
#: switch admission order is unchanged; crashes act on tasks, not on
#: the fabric.
FAULT_GOLDEN = [
    pytest.param(
        Scenario(config=_T(netem_loss=0.02)),
        "2c23624ab87a5c25d86f9c74c97bbf4b9dd21bada6004750d23e16146077dbb9",
        id="netem-loss",
    ),
    pytest.param(
        Scenario(config=_T(policy=Policy.TLS_ONE, netem_delay=1e-4,
                           netem_jitter=5e-5)),
        "e2b1fe2a2f98fcf74963477e26bf50be846c3759a24f0cee20ea4b0594353789",
        id="netem-delay-jitter",
    ),
    pytest.param(
        Scenario(
            config=_T(policy=Policy.TLS_ONE, netem_loss=0.01),
            faults=FaultPlan(
                faults=(PSCrash(at=0.3, job="job00", recover_after=0.3),),
                recovery=_PROCEED,
            ),
        ),
        "fcaee29158233d587208c97b19082843a0d23a87e8df77d5342e6f20d9609963",
        id="ps-crash-netem-loss",
    ),
    pytest.param(
        Scenario(
            config=_T(policy=Policy.TLS_RR),
            faults=FaultPlan(
                faults=(HostCrash(at=0.3, host="h02", recover_after=0.3),),
                recovery=_PROCEED,
            ),
        ),
        "4445dcefa444f88999a1334dbb8f65aa06747b8165aa4d106806452109f5db1a",
        id="host-crash",
    ),
    pytest.param(
        Scenario(
            config=_T(),
            faults=FaultPlan(faults=(
                BurstLoss(at=0.2, host="h03", duration=0.3, loss=0.05),
                NicFlap(at=0.1, host="h01", flaps=2, period=0.2,
                        down_time=0.05, factor=0.1),
            )),
        ),
        "43906f1b392f026ba9f0a2b6fc27908ddd1f3caebdc2bb05e7921acdc0d3be35",
        id="burst-loss-nic-flap",
    ),
]


@pytest.mark.parametrize("sc, expected", FAULT_GOLDEN)
def test_faulted_and_netem_hashes_match_packet_oracle(sc, expected):
    flow, packet = _run_both(sc, metrics=True, watchdog="warn")
    assert result_content_hash(flow) == expected
    assert result_content_hash(packet) == expected
    assert flow.sim_events == packet.sim_events
    assert flow.fault_events == packet.fault_events
    assert flow.watchdog_violations == packet.watchdog_violations
    assert flow.metrics_snapshot == packet.metrics_snapshot


_FAULTS = st.sampled_from([
    None,
    PSCrash(at=0.3, job="job01", recover_after=0.2),
    HostCrash(at=0.25, host="h03", recover_after=0.3),
    HostCrash(at=0.25, host="h04"),
    BurstLoss(at=0.1, host="h02", duration=0.3, loss=0.1),
    NicFlap(at=0.1, host="h01", flaps=2, period=0.2, down_time=0.05,
            factor=0.05),
])


@st.composite
def tiny_scenarios(draw):
    """Tiny PS scenarios over the knobs that shape fabric contention."""
    config = _T(
        iterations=3,
        policy=draw(st.sampled_from(list(Policy))),
        placement_index=draw(st.sampled_from([1, 2, 4, 5])),
        switch_buffer_bytes=draw(st.sampled_from([None, 4e6, 6e5])),
        netem_loss=draw(st.sampled_from([0.0, 0.02])),
        netem_delay=draw(st.sampled_from([0.0, 1e-4])),
        netem_jitter=draw(st.sampled_from([0.0, 5e-5])),
        seed=draw(st.integers(0, 2**16)),
    )
    fault = draw(_FAULTS)
    if fault is None:
        return Scenario(config=config)
    return Scenario(
        config=config,
        faults=FaultPlan(faults=(fault,), recovery=_PROCEED),
    )


@settings(max_examples=20, deadline=None)
@given(sc=tiny_scenarios())
def test_generated_scenarios_match_packet_oracle(sc):
    flow, packet = _run_both(sc, watchdog="raise")
    assert result_content_hash(flow) == result_content_hash(packet)
    assert flow.sim_events == packet.sim_events


@pytest.mark.xfail(
    strict=True,
    reason=(
        "same-time delivery-order defect: two host-facing ports finish a "
        "message's last segment at the same float time; the packet "
        "oracle delivers them in serialization-done event order, "
        "VirtualOutputPort in admission order, so two barrier waits swap"
    ),
)
def test_same_time_delivery_order_counterexample_matches_packet_oracle():
    # The shrunk falsifying example of the property above under
    # ``--hypothesis-seed=4``: JCTs and event counts agree, the content
    # hash does not.
    sc = Scenario(
        config=_T(iterations=3, placement_index=5, switch_buffer_bytes=None,
                  seed=1784),
        faults=FaultPlan(
            faults=(BurstLoss(at=0.1, host="h02", duration=0.3, loss=0.1),),
            recovery=_PROCEED,
        ),
    )
    flow, packet = _run_both(sc, watchdog="raise")
    assert flow.sim_events == packet.sim_events
    assert flow.jcts == packet.jcts
    assert result_content_hash(flow) == result_content_hash(packet)


def _run_contention_window(packet):
    """Each port alternates between solo traffic and droppy incast.

    Three rounds of: (a) a solo transfer into h0 (uncontended: the fast
    path elides everything but the completion), then (b) a 4-to-1 incast
    into h0 with a shallow buffer (tail drops, RTO retransmits, window
    halving — every fast-path special case), then (c) solo again toward
    a *different* port.  This forces repeated switches between the two
    service regimes on the same ports within one run.
    """
    from repro.net.addressing import FlowKey
    from repro.net.link import Link
    from repro.net.packet import Message
    from repro.net.topology import StarNetwork
    from repro.sim import Simulator
    from repro.sim.process import Timeout

    sim = Simulator(seed=7)
    hosts = [f"h{i}" for i in range(5)]
    with packet_fabric() if packet else contextlib.nullcontext():
        net = StarNetwork(
            sim, hosts, link=Link(rate=1e6, latency=5e-6),
            segment_bytes=1000, window_segments=4, window_jitter=0.25,
            switch_buffer_bytes=3000, rto=0.01,
        )
    deliveries = []
    for h in hosts:
        # msg_id is a process-global counter, so record flow + size
        # instead (run-order independent).
        net.transport(h).listen(
            9000,
            lambda m, _h=h: deliveries.append(
                (sim.now, _h, m.flow.src_host, m.size)
            ),
        )

    def driver():
        for round_no in range(3):
            # (a) solo into h0
            net.transport("h1").send_message(
                Message(flow=FlowKey("h1", 1, "h0", 9000), size=8000)
            )
            yield Timeout(0.05)
            # (b) incast into h0
            for i, src in enumerate(("h1", "h2", "h3", "h4")):
                net.transport(src).send_message(
                    Message(flow=FlowKey(src, 2 + i, "h0", 9000), size=12000)
                )
            yield Timeout(0.5)
            # (c) solo toward another port
            net.transport("h0").send_message(
                Message(flow=FlowKey("h0", 1, "h2", 9000), size=8000)
            )
            yield Timeout(0.05)

    sim.spawn(driver(), name="driver")
    sim.run()
    port_stats = {
        p.host_id: (p.drops, p.dropped_bytes, p.bytes_tx, p.busy_time)
        for p in net.iter_ports()
    }
    for nic in net.nics.values():
        nic.settle_rx()
    nic_stats = {
        h: (n.bytes_tx, n.bytes_rx, n.segments_tx, n.segments_rx)
        for h, n in net.nics.items()
    }
    retx = {h: t.segments_retransmitted for h, t in net.transports.items()}
    return deliveries, port_stats, nic_stats, retx, sim.steps_executed, sim.now


def test_contention_window_mode_switches_equivalent():
    fast = _run_contention_window(packet=False)
    slow = _run_contention_window(packet=True)
    assert fast == slow
    # sanity: the scenario actually exercised drops + retransmits
    assert sum(d for d, *_ in fast[1].values()) > 0
    assert sum(fast[3].values()) > 0
