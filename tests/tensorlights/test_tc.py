"""Unit tests for the tc facade."""

import pytest

from repro.errors import TcError
from repro.net.nic import NIC
from repro.net.qdisc import HTBQdisc, PFifo
from repro.sim import Simulator
from repro.tensorlights.tc import BAND_CLASSID_BASE, Tc
from repro.units import gbps

from tests.net.helpers import seg


def make_nic(sim=None):
    sim = sim or Simulator()
    nic = NIC(sim, "h00", rate=gbps(10))
    nic.attach_link(lambda s: None, latency=0.0)
    return nic


def test_install_builds_htb_with_bands():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(6)
    assert tc.installed
    assert tc.n_bands == 6
    assert isinstance(nic.qdisc, HTBQdisc)
    # root + 6 leaves
    assert len(nic.qdisc.classes) == 7


def test_install_invalid_bands():
    tc = Tc(make_nic())
    with pytest.raises(TcError):
        tc.install_tensorlights_htb(0)


def test_port_band_mapping_routes_traffic():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(3)
    tc.set_port_band(5000, 0)
    tc.set_port_band(5001, 2)
    assert tc.band_of_port(5000) == 0
    assert tc.band_of_port(5001) == 2
    assert tc._port_to_band == {5000: 0, 5001: 2}
    q: HTBQdisc = nic.qdisc
    q.enqueue(seg(100, sport=5000), 0.0)
    q.enqueue(seg(100, sport=5001), 0.0)
    assert len(q._get(BAND_CLASSID_BASE + 0).queue) == 1
    assert len(q._get(BAND_CLASSID_BASE + 2).queue) == 1


def test_unmatched_port_goes_to_last_band():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(3)
    q: HTBQdisc = nic.qdisc
    q.enqueue(seg(100, sport=9999), 0.0)
    assert len(q._get(BAND_CLASSID_BASE + 2).queue) == 1


def test_set_port_band_remaps():
    tc = Tc(make_nic())
    tc.install_tensorlights_htb(3)
    tc.set_port_band(5000, 0)
    tc.set_port_band(5000, 1)
    assert tc.band_of_port(5000) == 1


def test_set_port_band_range_checked():
    tc = Tc(make_nic())
    tc.install_tensorlights_htb(3)
    with pytest.raises(TcError):
        tc.set_port_band(5000, 3)


def test_operations_require_installed_qdisc():
    tc = Tc(make_nic())
    with pytest.raises(TcError):
        tc.set_port_band(5000, 0)
    with pytest.raises(TcError):
        tc.del_port(5000)
    with pytest.raises(TcError):
        tc.change_band_prio(0, 1)


def test_del_port():
    tc = Tc(make_nic())
    tc.install_tensorlights_htb(3)
    tc.set_port_band(5000, 0)
    tc.del_port(5000)
    assert tc.band_of_port(5000) is None


def test_remove_reverts_to_fifo():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(3)
    tc.remove()
    assert not tc.installed
    assert isinstance(nic.qdisc, PFifo)


def test_change_band_prio():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(2)
    tc.change_band_prio(0, 7)
    assert nic.qdisc.classes[BAND_CLASSID_BASE].prio == 7
    with pytest.raises(TcError):
        tc.change_band_prio(5, 0)


def test_render_commands_shape():
    tc = Tc(make_nic())
    tc.install_tensorlights_htb(2)
    tc.set_port_band(5000, 0)
    cmds = tc.render_commands()
    assert cmds[0].startswith("tc qdisc replace dev h00 root handle 1: htb")
    assert any("classid 1:10 htb" in c and "prio 0" in c for c in cmds)
    assert any("sport 5000" in c and "flowid 1:10" in c for c in cmds)


def test_render_commands_uninstalled():
    tc = Tc(make_nic())
    assert tc.render_commands() == ["tc qdisc del dev h00 root"]


def test_install_replaces_existing_htb():
    nic = make_nic()
    tc = Tc(nic)
    tc.install_tensorlights_htb(3)
    tc.set_port_band(5000, 0)
    tc.install_tensorlights_htb(6)  # reinstall with more bands
    assert tc.n_bands == 6
    assert tc.band_of_port(5000) is None  # filters reset
