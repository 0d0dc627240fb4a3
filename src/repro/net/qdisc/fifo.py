"""``pfifo`` — the default first-come-first-serve qdisc.

This is the paper's baseline: packets from all colocated PSes interleave
in arrival order, which is what spreads every job's model-update completion
to the tail of the contention window (Section IV-A of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import QdiscError
from repro.net.packet import Segment
from repro.net.qdisc.base import Qdisc


class PFifo(Qdisc):
    """A bounded FIFO queue (packet-count limit, like ``pfifo``).

    Slotted: the compiled NIC path (``repro.net._segpath``) enqueues and
    dequeues an exact ``PFifo`` through these slots, without calling the
    two methods below; every other qdisc is called through its methods.
    """

    __slots__ = ("limit", "_queue", "_bytes", "drops")

    work_conserving = True

    def __init__(self, limit: int = 100_000) -> None:
        if limit < 1:
            raise QdiscError(f"pfifo limit must be >= 1, got {limit}")
        self.limit = limit
        self._queue: Deque[Segment] = deque()
        self._bytes = 0
        self.drops = 0

    def enqueue(self, seg: Segment, now: float) -> bool:
        if len(self._queue) >= self.limit:
            self._note_drop()
            return False
        self._queue.append(seg)
        self._bytes += seg.size
        return True

    def dequeue(self, now: float) -> Optional[Segment]:
        if not self._queue:
            return None
        seg = self._queue.popleft()
        self._bytes -= seg.size
        return seg

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        return self._bytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"PFifo(len={len(self)}, bytes={self._bytes}, drops={self.drops})"
