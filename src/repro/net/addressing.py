"""Flow addressing.

A :class:`FlowKey` is the TCP five-tuple minus the protocol field (all
traffic here is TCP-like).  TensorLights filters classify packets by the
*source port* of the PS, exactly like the paper's ``tc`` filters.
"""

from __future__ import annotations

from typing import NamedTuple


class FlowKey(NamedTuple):
    """Identifies one direction of one connection.

    Immutable and hashable.  Flow keys are dictionary keys on the
    per-segment transport path; as a named tuple, hashing, equality and
    field reads run in C, and the hash is the plain
    ``hash((src_host, src_port, dst_host, dst_port))``.
    """

    src_host: str
    src_port: int
    dst_host: str
    dst_port: int

    def reversed(self) -> "FlowKey":
        """The opposite direction of the same connection."""
        return FlowKey(self.dst_host, self.dst_port, self.src_host, self.src_port)

    def __str__(self) -> str:
        return f"{self.src_host}:{self.src_port}->{self.dst_host}:{self.dst_port}"
