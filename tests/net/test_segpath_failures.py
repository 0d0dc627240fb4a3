"""Failure paths and memory of the compiled segment path.

Each error the compiled methods raise is compared with what the Python
reference bodies (``tests/net/segpath_reference.py``) raise in the same
situation: the same exception type and message, and the same state left
behind.  A slot deleted from an instance is an ``AttributeError``, not a
crash, and a slot renamed in the class fails when the class is bound.
Repeated runs of one scenario allocate no more blocks than the run
before them.
"""

import gc
import re
import sys

import pytest

from repro.errors import NetworkError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario
from repro.net._native import segpath
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.nic import NIC
from repro.net.packet import Message, Segment
from repro.net.qdisc import PFifo
from repro.net.switch import OutputPort, Switch, VirtualOutputPort
from repro.net.topology import StarNetwork
from repro.sim import Simulator

from tests.net import segpath_reference


def _both(fn):
    """``fn()`` as shipped and on the reference bodies: each outcome is
    ``(exception type, message with message ids masked, fn's state)``."""
    outcomes = []
    for reference in (False, True):
        state = {}
        try:
            if reference:
                with segpath_reference.installed():
                    fn(state)
            else:
                fn(state)
            error = None
        except Exception as exc:  # noqa: BLE001 - compared below
            error = (type(exc), re.sub(r"msg=\d+", "msg=N", str(exc)))
        outcomes.append((error, state))
    return outcomes


def _star(sim, hosts=("h0", "h1"), **kw):
    return StarNetwork(sim, list(hosts), link=Link(rate=1e6, latency=1e-6),
                       segment_bytes=1000, **kw)


def test_full_pfifo_raises_and_writes_in_flight_through():
    """The window refill after a serialization hits a full PFifo: the
    NIC raises the reference's NetworkError and the flow's ``in_flight``
    already counts the refused segment, as the per-segment loop left it."""

    def run(state):
        sim = Simulator()
        net = _star(sim, window_segments=3)
        nic = net.nic("h0")
        nic.set_qdisc(PFifo(limit=2))
        flow = FlowKey("h0", 1, "h1", 9)
        net.transport("h1").listen(9, lambda m: None)
        state["flow"] = flow
        state["transport"] = net.transport("h0")
        try:
            net.transport("h0").send_message(Message(flow, size=10_000))
            sim.run()
        finally:
            send_state = state.pop("transport")._send_states[flow]
            state["in_flight"] = send_state.in_flight
            state["pending"] = len(send_state.pending)
            state["nic"] = (nic.segments_tx, len(nic.qdisc), nic.qdisc.drops)

    compiled, reference = _both(run)
    assert compiled == reference
    error, state = compiled
    assert error[0] is NetworkError
    assert error[1].startswith("qdisc on h0 dropped <Seg msg=N #3 1000B>")
    assert state["in_flight"] == 3 and state["nic"] == (1, 2, 1)


def test_unknown_fabric_port_raises_the_python_message():
    def run(state):
        sim = Simulator()
        net = _star(sim)
        net.transport("h0").send_message(
            Message(FlowKey("h0", 1, "nowhere", 9), size=1500))
        sim.run()

    compiled, reference = _both(run)
    assert compiled == reference
    assert compiled[0] == (NetworkError, "no fabric port for destination 'nowhere'")


@pytest.mark.parametrize("size", [500, 2500])
@pytest.mark.parametrize("tolerate", [False, True])
def test_unrouted_message_raises_or_is_counted(size, tolerate):
    def run(state):
        sim = Simulator()
        net = _star(sim)
        rx = net.transport("h1")
        rx.tolerate_unrouted = tolerate
        seen = []
        rx.on_deliver = seen.append
        net.transport("h0").send_message(
            Message(FlowKey("h0", 1, "h1", 9000), size=size, kind="probe"))
        try:
            sim.run()
        finally:
            state["counts"] = (rx.messages_delivered, rx.messages_unrouted,
                               len(seen), len(rx._recv_states))

    compiled, reference = _both(run)
    assert compiled == reference
    error, state = compiled
    if tolerate:
        assert error is None and state["counts"] == (1, 1, 1, 0)
    else:
        assert error == (NetworkError, "no listener on h1:9000 for probe message")
        assert state["counts"] == (1, 0, 1, 0)


def _wired():
    sim = Simulator()
    net = _star(sim, window_segments=4)
    return sim, net


def _segment(flow=FlowKey("h0", 1, "h1", 9), size=1000):
    return Segment(Message(flow, size=size), 0, size, True)


@pytest.mark.parametrize("owner, name, call", [
    ("nic", "_busy_since", lambda sim, net: net.nic("h0")._tx_done(_segment())),
    ("nic", "qdisc", lambda sim, net: net.nic("h0").send(_segment())),
    ("nic", "_tx_busy", lambda sim, net: net.nic("h0")._kick()),
    ("port", "_wait", lambda sim, net: net.switch.port("h1").admit(_segment(), 0.0)),
    ("port", "_pending", lambda sim, net: net.switch.port("h1").settle()),
    ("transport", "_send_states",
     lambda sim, net: net.transport("h0")._on_segment_serialized(_segment())),
    ("transport", "_listeners",
     lambda sim, net: net.transport("h1")._on_segment_arrival(_segment())),
    ("sim", "events", lambda sim, net: net.nic("h0").send(_segment())),
    ("segment", "size", None),
])
def test_deleted_slot_raises_attribute_error(owner, name, call):
    sim, net = _wired()
    if owner == "segment":
        seg = _segment()
        del seg.size
        with pytest.raises(AttributeError, match="'Segment' object has no attribute 'size'"):
            net.nic("h0").send(seg)
        return
    obj = {"nic": net.nic("h0"), "port": net.switch.port("h1"),
           "transport": None, "sim": sim}[owner]
    if owner == "transport":
        obj = net.transport("h1" if name == "_listeners" else "h0")
    delattr(obj, name)
    with pytest.raises(AttributeError,
                       match=f"'{type(obj).__name__}' object has no attribute '{name}'"):
        call(sim, net)


def test_methods_check_self():
    with pytest.raises(TypeError, match="'send' for 'NIC' objects"):
        NIC.send(object(), _segment())
    with pytest.raises(TypeError, match="'settle' for 'VirtualOutputPort'"):
        VirtualOutputPort.settle(object())


def test_renamed_slot_fails_when_bound_and_changes_nothing():
    class Renamed(OutputPort):
        __slots__ = ("_free_at_s", "_last_start", "_wait", "_pending", "_acc",
                     "_rate", "_lat", "_rx_nic")

    class NotSlotted(VirtualOutputPort):
        _free_at = property(lambda self: 0.0)

    with pytest.raises(AttributeError, match="_free_at"):
        segpath.bind_port(Renamed, Switch)
    with pytest.raises(TypeError, match="not a slot"):
        segpath.bind_port(NotSlotted, Switch)
    # the failed binds left the shipped classes bound
    sim, net = _wired()
    net.transport("h1").listen(9, lambda m: None)
    net.transport("h0").send_message(Message(FlowKey("h0", 1, "h1", 9), size=3000))
    sim.run()
    assert net.transport("h1").messages_delivered == 1


def _blocks_after_run(scenario):
    materialize(scenario).run()
    gc.collect()
    return sys.getallocatedblocks()


def test_repeated_runs_leak_nothing():
    """Reference counts balance on every path: with drops, retransmits,
    netem loss and a PS crash, the third run of a scenario holds no more
    blocks than the second (a leaked heap entry, tuple or float per
    segment would hold thousands)."""
    from repro.faults.plan import FaultPlan, PSCrash, RecoverySpec

    scenario = Scenario(
        config=ExperimentConfig.tiny(iterations=3, netem_loss=0.02,
                                     switch_buffer_bytes=6e5),
        faults=FaultPlan(faults=(PSCrash(at=0.3, job="job01", recover_after=0.2),),
                         recovery=RecoverySpec(barrier_mode="proceed")),
    )
    _blocks_after_run(scenario)
    second = _blocks_after_run(scenario)
    third = _blocks_after_run(scenario)
    assert third - second <= 50, (second, third)

