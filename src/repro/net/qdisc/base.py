"""Qdisc interface."""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Segment


class Qdisc:
    """Abstract queueing discipline.

    Contract:

    * ``enqueue(seg, now)`` returns ``True`` if accepted, ``False`` if the
      segment was dropped (queue overflow).
    * ``dequeue(now)`` returns the next segment eligible for transmission
      *at time now*, or ``None``.  ``None`` with ``backlog > 0`` means the
      qdisc is shaping; the caller should retry at ``next_ready_time(now)``.
    * A work-conserving qdisc never returns ``None`` while backlogged.

    Interaction with the flow-level fast path: the fabric's port
    granularity (``VirtualOutputPort`` vs ``OutputPort``) lives entirely
    *behind* the NIC serializer, so qdiscs never see it — every segment
    still passes through ``enqueue``/``dequeue`` at its real timestamps
    and HTB token buckets accrue and spend identically at either
    granularity.  This is load-bearing for exactness: shaped qdiscs carry
    continuous token state, and any fast-path shortcut that skipped (or
    batched) dequeues would de-synchronize that state from the packet-
    granularity timeline the content hashes pin.
    """

    #: True when dequeue(now) never returns None while backlogged.
    work_conserving: bool = True

    def enqueue(self, seg: Segment, now: float) -> bool:
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Segment]:
        raise NotImplementedError

    def set_line_rate(self, rate: float) -> None:
        """The draining NIC's line rate changed (or a NIC attached).

        The NIC calls this at construction, ``set_qdisc`` and ``set_rate``,
        and dequeues no faster than ``rate``.  Only HTB uses it.
        """

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time a backlogged-but-shaped qdisc can send.

        Work-conserving qdiscs return ``now`` when backlogged and ``None``
        when empty.
        """
        return now if len(self) > 0 else None

    def drain_all(self, now: float) -> list[Segment]:
        """Remove and return every queued segment, ignoring shaping.

        Used when a qdisc is replaced (``tc qdisc replace``): the backlog
        migrates to the new qdisc regardless of token state.  The default
        implementation works for work-conserving qdiscs; shaped qdiscs
        override it.
        """
        out = []
        while True:
            seg = self.dequeue(now)
            if seg is None:
                break
            out.append(seg)
        return out

    def __len__(self) -> int:
        """Number of queued segments."""
        raise NotImplementedError

    @property
    def backlog_bytes(self) -> int:
        """Total queued payload bytes."""
        raise NotImplementedError

    # -- statistics shared by all implementations -------------------------

    drops: int = 0

    #: Optional callback fired when a qdisc drops a segment it had
    #: previously *accepted* (head drops, e.g. HTB ``del_class``).  The
    #: NIC wires this to the local transport's loss handler so the flow's
    #: window slot is released and the segment retransmitted.  Tail drops
    #: at enqueue are reported through the ``enqueue -> False`` return
    #: instead.
    on_drop = None

    def _note_drop(self) -> None:
        self.drops += 1
