"""Packet-granularity reference fabric: the oracle for flow-level ports.

Production fabrics run every host-facing egress port at flow
granularity (:class:`~repro.net.switch.VirtualOutputPort`, wired by
``Switch.attach_nic`` and ``LeafSwitch.attach_host``).  Inside
:func:`packet_fabric`, those two wiring functions build event-driven
:class:`~repro.net.switch.OutputPort`\\ s instead and leave the NICs on
their plain link: every segment then costs a real ingress,
serialization-done and delivery event.  Tests run a scenario once in
production and once under this context and compare the results.
"""

from contextlib import contextmanager
from unittest import mock

from repro.net.switch import OutputPort, Switch
from repro.net.twotier import LeafSwitch


def _switch_attach_nic(self, nic, link):
    port = OutputPort(
        self.sim, nic.host_id, link, nic.receive,
        buffer_bytes=self.buffer_bytes, on_drop=self.on_drop,
    )
    self._ports[nic.host_id] = port
    nic.attach_link(self.ingress, link.latency)
    return port


def _leaf_attach_host(self, nic):
    port = OutputPort(
        self.sim, nic.host_id, self.host_link, nic.receive,
        buffer_bytes=self.buffer_bytes, on_drop=self.on_drop,
    )
    self._host_ports[nic.host_id] = port
    self.local_hosts.add(nic.host_id)
    nic.attach_link(self.ingress, self.host_link.latency)
    return port


@contextmanager
def packet_fabric():
    """Build star and leaf-spine fabrics at packet granularity."""
    with mock.patch.object(Switch, "attach_nic", _switch_attach_nic), \
            mock.patch.object(LeafSwitch, "attach_host", _leaf_attach_host):
        yield
