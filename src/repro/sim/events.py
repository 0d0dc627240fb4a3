"""Event heap for the simulation kernel.

Events are ordered by ``(time, priority, seq)``.  ``seq`` is a global
monotone counter so that events scheduled earlier run earlier among ties —
this makes every simulation fully deterministic for a given call sequence.

Performance notes (the kernel hot path):

* Heap entries are plain ``(time, priority, seq, Event)`` tuples, so the
  heap's sift comparisons run entirely in C — ``seq`` is unique, so tuple
  comparison never falls through to comparing :class:`Event` objects.
  (An earlier revision heapified ``Event`` objects directly; its
  Python-level ``__lt__`` was the single hottest function of a run.)
* ``cancel`` is O(1): the event is marked and its heap entry lazily
  discarded when it surfaces.  To keep cancel-heavy workloads (fault
  retry loops, NIC shaping re-arms) from growing the heap without bound,
  the queue compacts in place once tombstones outnumber live events —
  amortized O(1) per cancel, so the heap never holds more than ~2x the
  live events (see ``test_cancelled_events_do_not_accumulate``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

#: Default event priority.  Lower runs first among same-time events.
PRIORITY_NORMAL = 0
#: Used by the kernel for bookkeeping that must run before normal events.
PRIORITY_HIGH = -10
#: Used for "end of tick" accounting (e.g. telemetry samplers).
PRIORITY_LOW = 10

#: Compaction floor: below this many tombstones, lazy deletion is cheaper
#: than rebuilding the heap.
_MIN_COMPACT = 64


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code
    normally only keeps a reference in order to cancel it.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "pending")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        #: True while the event sits in a queue (not yet popped).
        self.pending = True

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1); the heap entry is lazily discarded (or
        swept by the owning queue's compaction).
        """
        self.cancelled = True
        self.fn = None  # drop references early
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} prio={self.priority} seq={self.seq} {state}>"


#: One heap entry — two shapes share the heap:
#:
#: * ``(time, priority, seq, event)`` — a cancellable :class:`Event`;
#: * ``(time, priority, seq, None, fn, args)`` — a raw fire-and-forget
#:   entry pushed by ``Simulator.schedule_fire`` (hot path: no Event
#:   allocation, never cancelled).
#:
#: Mixed lengths compare fine: ``seq`` is globally unique, so tuple
#: comparison is always decided within the first three fields.
Entry = Tuple[float, int, int, Optional[Event]]


class EventQueue:
    """The heap of entries behind :class:`~repro.sim.kernel.Simulator`.

    The simulator pushes and pops entries inline (its schedule entry
    points and run loop); the queue owns the live/tombstone bookkeeping
    and cancellation.
    """

    __slots__ = ("_heap", "_seq", "_live", "_tombstones", "cancels")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0
        self._live = 0
        self._tombstones = 0
        #: cumulative effective cancellations (kernel-stats aid: re-arm
        #: churn shows up here long before the compactor has to run)
        self.cancels = 0

    def __len__(self) -> int:
        return self._live

    def cancel(self, ev: Event) -> None:
        """Cancel a pending event (idempotent; safe after execution).

        O(1).  The dead heap entry is swept lazily; when tombstones
        outnumber live events the heap is compacted in place, so
        cancel-heavy workloads cannot grow the queue unboundedly.
        """
        if ev.cancelled or not ev.pending:
            return
        ev.cancel()
        self._live -= 1
        self._tombstones += 1
        self.cancels += 1
        if self._tombstones > _MIN_COMPACT and self._tombstones > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify (in place)."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[3] is None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._tombstones = 0

    @property
    def heap_size(self) -> int:
        """Physical heap entries, live plus tombstones (monitoring aid)."""
        return len(self._heap)
