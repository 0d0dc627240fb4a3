"""A Linux-``tc``-style configuration facade for simulated NICs.

The paper deploys TensorLights purely through ``tc``: an HTB root qdisc,
one class per priority band, and filters matching each PS's TCP source
port (§V, Implementation).  :class:`Tc` exposes that workflow as
methods, and :meth:`Tc.render_commands` prints the configuration used in
experiments exactly as it would be typed on the testbed.

Standard TensorLights shape (``Tc.install_tensorlights_htb``)::

    tc qdisc replace dev <host> root handle 1: htb default <last-band>
    tc class add dev <h> parent 1:  classid 1:1  htb rate <link> ceil <link>
    tc class add dev <h> parent 1:1 classid 1:10 htb rate <link/1000> ceil <link> prio 0
    ... one class per band ...
    tc filter add dev <h> protocol ip parent 1: u32 match ip sport <ps-port> flowid 1:<10+band>
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import TcError
from repro.net.qdisc import HTBQdisc, PFifo, PortFilter

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC

ROOT_CLASSID = 1
BAND_CLASSID_BASE = 10
#: Guaranteed-rate fraction per band class (tiny: priorities do the work,
#: the guarantee only prevents total starvation).
GUARANTEED_RATE_FRACTION = 1e-3


class Tc:
    """Per-device traffic-control configuration."""

    def __init__(self, nic: "NIC") -> None:
        self.nic = nic
        self._htb: Optional[HTBQdisc] = None
        self._filter: Optional[PortFilter] = None
        self._n_bands = 0
        self._work_conserving = True
        self._port_to_band: Dict[int, int] = {}
        self._range_to_band: Dict[Tuple[int, int], int] = {}

    # -- high-level: the TensorLights configuration ------------------------

    def install_tensorlights_htb(
        self, n_bands: int, work_conserving: bool = True
    ) -> None:
        """Install the paper's HTB shape with ``n_bands`` priority bands.

        With ``work_conserving=False`` each band class is hard-capped at
        its equal share (``rate == ceil == link / n_bands``), disabling
        HTB's borrowing — the knockout used to measure how much of the
        TensorLights benefit comes from work conservation (an idle
        high-priority band lending its bandwidth to lower bands).
        """
        if n_bands < 1:
            raise TcError(f"need >= 1 band, got {n_bands}")
        link = self.nic.rate
        filt = PortFilter()
        htb = HTBQdisc(filter=filt, default_classid=BAND_CLASSID_BASE + n_bands - 1)
        htb.add_class(ROOT_CLASSID, rate=link, ceil=link)
        for band in range(n_bands):
            if work_conserving:
                rate, ceil = link * GUARANTEED_RATE_FRACTION, link
            else:
                rate = ceil = link / n_bands
            htb.add_class(
                BAND_CLASSID_BASE + band,
                rate=rate,
                ceil=ceil,
                prio=band,
                parent=ROOT_CLASSID,
            )
        self._htb = htb
        self._filter = filt
        self._n_bands = n_bands
        self._work_conserving = work_conserving
        self._port_to_band = {}
        self._range_to_band = {}
        self.nic.set_qdisc(htb)

    def remove(self) -> None:
        """``tc qdisc del root`` — revert to the default FIFO."""
        self._htb = None
        self._filter = None
        self._n_bands = 0
        self._port_to_band = {}
        self._range_to_band = {}
        self.nic.set_qdisc(PFifo())

    @property
    def installed(self) -> bool:
        return self._htb is not None

    @property
    def n_bands(self) -> int:
        return self._n_bands

    def _require_htb(self) -> HTBQdisc:
        if self._htb is None:
            raise TcError(f"no htb qdisc installed on {self.nic.host_id}")
        return self._htb

    # -- filters: PS port -> band ------------------------------------------

    def set_port_band(self, sport: int, band: int) -> None:
        """Map a PS source port to a priority band (add or move)."""
        htb = self._require_htb()
        if not 0 <= band < self._n_bands:
            raise TcError(f"band {band} out of range (have {self._n_bands})")
        assert self._filter is not None
        self._filter.remove_match(sport)
        self._filter.add_match(sport, BAND_CLASSID_BASE + band)
        self._port_to_band[sport] = band

    def del_port(self, sport: int) -> None:
        """Remove a port's filter (job departed)."""
        self._require_htb()
        assert self._filter is not None
        self._filter.remove_match(sport)
        self._port_to_band.pop(sport, None)

    def band_of_port(self, sport: int) -> Optional[int]:
        band = self._port_to_band.get(sport)
        if band is not None:
            return band
        for (lo, hi), range_band in self._range_to_band.items():
            if lo <= sport <= hi:
                return range_band
        return None

    # -- filters: source-port range -> band (ring all-reduce jobs) ----------

    def set_range_band(self, lo: int, hi: int, band: int) -> None:
        """Map an inclusive source-port range to a band (add or move).

        The port-range classification scheme: an all-reduce member sends
        all of its chunks from ports in ``[lo, hi]``, so one range filter
        per member host bands the whole job — regardless of how many
        chunk channels it stripes over.
        """
        htb = self._require_htb()
        if lo > hi:
            raise TcError(f"bad port range {lo}-{hi}")
        if not 0 <= band < self._n_bands:
            raise TcError(f"band {band} out of range (have {self._n_bands})")
        assert self._filter is not None
        self._filter.add_range_match(lo, hi, BAND_CLASSID_BASE + band)
        self._range_to_band[(lo, hi)] = band

    def del_range(self, lo: int, hi: int) -> None:
        """Remove a range filter (job departed)."""
        self._require_htb()
        assert self._filter is not None
        self._filter.remove_range_match(lo, hi)
        self._range_to_band.pop((lo, hi), None)

    # -- class tweaks --------------------------------------------------------

    def change_band_prio(self, band: int, prio: int) -> None:
        """``tc class change ... prio`` on one band class."""
        htb = self._require_htb()
        if not 0 <= band < self._n_bands:
            raise TcError(f"band {band} out of range (have {self._n_bands})")
        htb.change_class(BAND_CLASSID_BASE + band, prio=prio)

    # -- rendering ---------------------------------------------------------

    def render_commands(self) -> list[str]:
        """The equivalent real ``tc`` command lines for this config."""
        if self._htb is None:
            return [f"tc qdisc del dev {self.nic.host_id} root"]
        dev = self.nic.host_id
        link_bit = int(self.nic.rate * 8)
        out = [
            f"tc qdisc replace dev {dev} root handle 1: htb default "
            f"{BAND_CLASSID_BASE + self._n_bands - 1}",
            f"tc class add dev {dev} parent 1: classid 1:{ROOT_CLASSID} htb "
            f"rate {link_bit}bit ceil {link_bit}bit",
        ]
        for band in range(self._n_bands):
            if self._work_conserving:
                rate_bit = int(self.nic.rate * GUARANTEED_RATE_FRACTION * 8)
                ceil_bit = link_bit
            else:
                rate_bit = ceil_bit = int(self.nic.rate / self._n_bands * 8)
            out.append(
                f"tc class add dev {dev} parent 1:{ROOT_CLASSID} classid "
                f"1:{BAND_CLASSID_BASE + band} htb rate {rate_bit}bit "
                f"ceil {ceil_bit}bit prio {band}"
            )
        for sport, band in sorted(self._port_to_band.items()):
            out.append(
                f"tc filter add dev {dev} protocol ip parent 1: u32 "
                f"match ip sport {sport} 0xffff flowid "
                f"1:{BAND_CLASSID_BASE + band}"
            )
        for (lo, hi), band in sorted(self._range_to_band.items()):
            # Port ranges use the flower classifier (u32 needs mask
            # gymnastics for arbitrary ranges; flower takes them natively).
            out.append(
                f"tc filter add dev {dev} protocol ip parent 1: flower "
                f"ip_proto tcp src_port {lo}-{hi} classid "
                f"1:{BAND_CLASSID_BASE + band}"
            )
        return out
