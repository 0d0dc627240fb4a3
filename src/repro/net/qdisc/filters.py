"""Traffic classifiers (``tc filter`` equivalents).

A filter maps a segment to a class/band id.  TensorLights keys on the PS's
TCP **source port**, because in TensorFlow the PS port is fixed for the
lifetime of the job (paper §V, Implementation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TcError
from repro.net.packet import Segment


class FlowFilter:
    """Base classifier: returns a class id for a segment, or None."""

    def classify(self, seg: Segment) -> Optional[int]:
        raise NotImplementedError


class PortFilter(FlowFilter):
    """Classify by source port.

    ``add_match(port, classid)`` mirrors
    ``tc filter add ... match ip sport <port> ... flowid 1:<classid>``;
    ``add_range_match(lo, hi, classid)`` mirrors a flower source-port
    range filter (``... flower ip_proto tcp src_port <lo>-<hi>``), the
    scheme ring all-reduce jobs are classified with: one range covers
    every chunk channel a member sends from on its host.  An exact port
    match wins over a range.
    """

    def __init__(self, default_class: Optional[int] = None) -> None:
        self._by_src: Dict[int, int] = {}
        #: (lo, hi) inclusive source-port ranges, first match wins
        self._src_ranges: List[Tuple[int, int, int]] = []
        self.default_class = default_class

    def add_match(self, port: int, classid: int) -> None:
        self._by_src[port] = classid

    def remove_match(self, port: int) -> None:
        self._by_src.pop(port, None)

    def add_range_match(self, lo: int, hi: int, classid: int) -> None:
        """Classify source ports in inclusive ``[lo, hi]`` (add or move)."""
        if lo > hi:
            raise TcError(f"bad port range {lo}-{hi}")
        self.remove_range_match(lo, hi)
        self._src_ranges.append((lo, hi, classid))

    def remove_range_match(self, lo: int, hi: int) -> None:
        """Remove the exact range ``[lo, hi]`` if present."""
        self._src_ranges = [r for r in self._src_ranges if r[:2] != (lo, hi)]

    def classify(self, seg: Segment) -> Optional[int]:
        sport = seg.flow.src_port
        classid = self._by_src.get(sport)
        if classid is not None:
            return classid
        for lo, hi, range_class in self._src_ranges:
            if lo <= sport <= hi:
                return range_class
        return self.default_class
