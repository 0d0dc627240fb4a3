"""``htb`` — hierarchical token bucket.

This is the qdisc the paper actually configures (``tc ... htb``): a class
tree where every class has a guaranteed ``rate``, a ``ceil`` it may burst
to by *borrowing* from its parent, and a ``prio`` that orders classes when
excess (borrowed) bandwidth is handed out.

Faithful semantics implemented here:

* guaranteed rates are always honored: a class whose own bucket has tokens
  ("green") sends before any class that needs to borrow ("yellow"),
  regardless of priority;
* excess bandwidth goes to the *lowest prio value* among borrowing-capable
  classes; ties are broken by deficit round robin with per-class quantum;
* ``ceil`` is a hard cap enforced with a second (ceiling) bucket;
* borrowing charges the lender's rate bucket and every hop's ceil bucket,
  so a mid-tree class's ceil constrains its whole subtree;
* with a root class of ``rate == ceil == link rate`` the qdisc is
  work-conserving — TensorLights relies on this (paper §IV-B, advantage 3).

TensorLights' standard configuration (built by
:mod:`repro.tensorlights.tc`) is a root class at the link rate plus one
leaf per priority band with a tiny guaranteed rate, ``ceil`` = link rate
and ``prio`` = band index — which behaves as a work-conserving strict
priority scheduler with starvation protection.

The datapath runs once per PS-egress segment, so :meth:`HTBQdisc.dequeue`
is one pass over the leaves with the token-bucket refills inlined.  Which
buckets are refilled at which instant decides the float rounding of every
token count, and with it the fixed-seed content hashes: every backlogged
leaf is refilled on every dequeue, exactly as a walk of the class tree
would, never lazily.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import QdiscError
from repro.net.packet import Segment
from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.filters import FlowFilter
from repro.net.qdisc.tbf import TOKEN_EPSILON, TokenBucket

#: Default burst sizing: allow ~this much time of full-rate accumulation.
DEFAULT_BURST_SECONDS = 0.002
#: Minimum burst so tiny-rate classes can still emit one max-size segment.
MIN_BURST_BYTES = 512 * 1024


class HTBClass:
    """One node in the HTB class tree."""

    __slots__ = (
        "classid",
        "parent",
        "path",
        "children",
        "rate",
        "ceil",
        "prio",
        "quantum",
        "bucket",
        "cbucket",
        "queue",
        "queued_bytes",
        "deficit",
        "sent_bytes",
    )

    def __init__(
        self,
        classid: int,
        rate: float,
        ceil: float,
        prio: int,
        quantum: int,
        parent: Optional["HTBClass"],
        burst: Optional[float] = None,
        cburst: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise QdiscError(f"class {classid}: rate must be positive, got {rate}")
        if ceil < rate:
            raise QdiscError(f"class {classid}: ceil ({ceil}) < rate ({rate})")
        self.classid = classid
        self.parent = parent
        #: ancestors, nearest first.  Fixed for the class's lifetime: a
        #: class is never re-parented and a parent with children cannot
        #: be deleted.
        self.path: tuple = (parent,) + parent.path if parent is not None else ()
        self.children: list[HTBClass] = []
        self.rate = rate
        self.ceil = ceil
        self.prio = prio
        self.quantum = quantum
        if burst is None:
            burst = max(MIN_BURST_BYTES, rate * DEFAULT_BURST_SECONDS)
        if cburst is None:
            cburst = max(MIN_BURST_BYTES, ceil * DEFAULT_BURST_SECONDS)
        self.bucket = TokenBucket(rate, burst)
        self.cbucket = TokenBucket(ceil, cburst)
        self.queue: Deque[Segment] = deque()
        self.queued_bytes = 0
        self.deficit = 0.0
        self.sent_bytes = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<HTBClass {self.classid} rate={self.rate:.0f} ceil={self.ceil:.0f} "
            f"prio={self.prio} qlen={len(self.queue)}>"
        )


class HTBQdisc(Qdisc):
    """The hierarchical token bucket qdisc."""

    work_conserving = False  # in general; True for the TensorLights config

    def __init__(
        self,
        filter: Optional[FlowFilter] = None,
        default_classid: Optional[int] = None,
    ) -> None:
        self.filter = filter
        self.default_classid = default_classid
        self.classes: Dict[int, HTBClass] = {}
        self.drops = 0
        self._len = 0
        self._bytes = 0
        self._last_served: Dict[int, int] = {}
        self._serve_seq = 0
        #: leaves in classid-insertion order — dequeue scans this instead
        #: of filtering the whole class tree per packet
        self._leaves: list[HTBClass] = []
        #: classid -> leaf, so enqueue resolves its class in one lookup
        self._leaf_by_id: Dict[int, HTBClass] = {}

    def _rebuild_leaves(self) -> None:
        self._leaves = [c for c in self.classes.values() if c.is_leaf]
        self._leaf_by_id = {c.classid: c for c in self._leaves}

    # -- configuration (tc class add/change/del) ---------------------------

    def add_class(
        self,
        classid: int,
        rate: float,
        ceil: Optional[float] = None,
        prio: int = 0,
        quantum: Optional[int] = None,
        parent: Optional[int] = None,
        burst: Optional[float] = None,
        cburst: Optional[float] = None,
    ) -> HTBClass:
        """``tc class add ... classid <id> htb rate R ceil C prio P``."""
        if classid in self.classes:
            raise QdiscError(f"class {classid} already exists")
        parent_cls: Optional[HTBClass] = None
        if parent is not None:
            parent_cls = self.classes.get(parent)
            if parent_cls is None:
                raise QdiscError(f"parent class {parent} does not exist")
            if parent_cls.queue:
                raise QdiscError(
                    f"cannot attach a child to class {parent}: it has queued packets"
                )
        cls = HTBClass(
            classid=classid,
            rate=rate,
            ceil=ceil if ceil is not None else rate,
            prio=prio,
            quantum=quantum if quantum is not None else 200 * 1024,
            parent=parent_cls,
            burst=burst,
            cburst=cburst,
        )
        if parent_cls is not None:
            parent_cls.children.append(cls)
        self.classes[classid] = cls
        self._rebuild_leaves()
        return cls

    def change_class(
        self,
        classid: int,
        rate: Optional[float] = None,
        ceil: Optional[float] = None,
        prio: Optional[int] = None,
    ) -> None:
        """``tc class change ...`` — used by TLs-RR to rotate priorities."""
        cls = self._get(classid)
        if rate is not None:
            cls.rate = rate
            cls.bucket.rate = rate
        if ceil is not None:
            if ceil < cls.rate:
                raise QdiscError(f"class {classid}: ceil ({ceil}) < rate ({cls.rate})")
            cls.ceil = ceil
            cls.cbucket.rate = ceil
        if prio is not None:
            cls.prio = prio

    def del_class(self, classid: int) -> None:
        """``tc class del ...`` — queued packets of the class are dropped.

        Each dropped segment counts in ``drops`` and is reported through
        ``on_drop``, as a head drop (see :class:`~repro.net.qdisc.base.Qdisc`),
        so the NIC releases the transport's window slot for it.
        """
        cls = self._get(classid)
        if cls.children:
            raise QdiscError(f"class {classid} still has children")
        if cls.parent is not None:
            cls.parent.children.remove(cls)
        del self.classes[classid]
        self._last_served.pop(classid, None)
        self._rebuild_leaves()
        dropped = list(cls.queue)
        cls.queue.clear()
        self._len -= len(dropped)
        self._bytes -= cls.queued_bytes
        cls.queued_bytes = 0
        for seg in dropped:
            self._note_drop()
            if self.on_drop is not None:
                self.on_drop(seg)

    def _get(self, classid: int) -> HTBClass:
        cls = self.classes.get(classid)
        if cls is None:
            raise QdiscError(f"class {classid} does not exist")
        return cls

    # -- datapath -----------------------------------------------------------

    def enqueue(self, seg: Segment, now: float) -> bool:
        classid = self.filter.classify(seg) if self.filter is not None else None
        if classid is None:
            classid = self.default_classid
        leaf = self._leaf_by_id.get(classid)
        if leaf is None:
            # unknown or interior class: fall back to the default leaf
            leaf = self._leaf_by_id.get(self.default_classid)
            if leaf is None:
                self._note_drop()
                return False
        leaf.queue.append(seg)
        leaf.queued_bytes += seg.size
        self._len += 1
        self._bytes += seg.size
        return True

    def _drr(self, peers: List[HTBClass]) -> HTBClass:
        """DRR among equal-priority peers.

        Of the peers whose deficit covers their head segment, pick the one
        served longest ago; when no peer has deficit, replenish all by
        quantum.
        """
        while True:
            ready = [c for c in peers if c.deficit >= c.queue[0].size]
            if ready:
                return min(
                    ready, key=lambda c: (self._last_served.get(c.classid, -1), c.classid)
                )
            for cls in peers:
                cls.deficit += cls.quantum

    def dequeue(self, now: float) -> Optional[Segment]:
        # Every inlined refill below is TokenBucket.refill: the same
        # ``min(burst, tokens + (now - last_update) * rate)`` under the same
        # ``now > last_update`` guard, and a bucket passes when
        # ``tokens >= size - TOKEN_EPSILON`` (TokenBucket.can_consume).
        if self._len == 0:
            return None

        # Green: a leaf sends on its own rate bucket and its ceil bucket.
        # The ceil bucket is refilled only when the rate bucket passes.
        backlogged = []
        cands = []
        for leaf in self._leaves:
            queue = leaf.queue
            if not queue:
                continue
            backlogged.append(leaf)
            need = queue[0].size - TOKEN_EPSILON
            b = leaf.bucket
            if now > b.last_update:
                b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                b.last_update = now
            if b.tokens >= need:
                b = leaf.cbucket
                if now > b.last_update:
                    b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                    b.last_update = now
                if b.tokens >= need:
                    cands.append(leaf)

        lenders: Optional[List[HTBClass]] = None
        if not cands:
            # Yellow: each backlogged leaf borrows from its nearest ancestor
            # whose rate bucket covers the head segment; the leaf's ceil and
            # every hop's ceil up to the lender must cover it too.
            lenders = []
            for leaf in backlogged:
                need = leaf.queue[0].size - TOKEN_EPSILON
                b = leaf.cbucket
                if now > b.last_update:
                    b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                    b.last_update = now
                if b.tokens < need:
                    continue
                for anc in leaf.path:
                    b = anc.cbucket
                    if now > b.last_update:
                        b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                        b.last_update = now
                    if b.tokens < need:
                        break
                    b = anc.bucket
                    if now > b.last_update:
                        b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                        b.last_update = now
                    if b.tokens >= need:
                        cands.append(leaf)
                        lenders.append(anc)
                        break
            if not cands:
                return None

        # Priority first; DRR among equal priorities.
        it = iter(cands)
        leaf = next(it)
        best = leaf.prio
        tie = False
        for c in it:
            if c.prio < best:
                leaf, best, tie = c, c.prio, False
            elif c.prio == best:
                tie = True
        if tie:
            leaf = self._drr([c for c in cands if c.prio == best])
        self._serve_seq += 1
        self._last_served[leaf.classid] = self._serve_seq

        seg = leaf.queue.popleft()
        size = seg.size
        leaf.queued_bytes -= size
        leaf.deficit = max(0.0, leaf.deficit - size)
        self._len -= 1
        self._bytes -= size

        # Charge (TokenBucket.consume).  The scan above already refilled at
        # ``now`` every bucket charged here except the ancestors' ceil
        # buckets on the green path, and a second refill at the same
        # instant is a no-op.
        leaf.cbucket.tokens -= size
        if lenders is None:
            leaf.bucket.tokens -= size
            for anc in leaf.path:
                b = anc.cbucket
                if now > b.last_update:
                    b.tokens = min(b.burst, b.tokens + (now - b.last_update) * b.rate)
                    b.last_update = now
                b.tokens -= size
        else:
            lender = lenders[cands.index(leaf)]
            lender.bucket.tokens -= size
            for anc in leaf.path:
                anc.cbucket.tokens -= size
                if anc is lender:
                    break
        leaf.sent_bytes += size
        return seg

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time any backlogged leaf could become green or yellow."""
        best: Optional[float] = None
        for leaf in self._leaves:
            if not leaf.queue:
                continue
            size = leaf.queue[0].size
            # Time to green: own rate bucket and own ceil bucket.
            t_path = leaf.cbucket.time_until(size, now)
            candidate = max(leaf.bucket.time_until(size, now), t_path)
            # Time to yellow through the nearest ancestor (hop ceils apply).
            for anc in leaf.path:
                t_hop = anc.cbucket.time_until(size, now)
                t_lend = max(t_path, t_hop, anc.bucket.time_until(size, now))
                candidate = min(candidate, t_lend)
                t_path = max(t_path, t_hop)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return now + best

    def drain_all(self, now: float) -> list:
        """Pull every queued segment out, ignoring token state.

        Leaves are drained in (classid) order; within a leaf, FIFO order is
        preserved — sufficient for qdisc replacement, where the new qdisc
        re-classifies everything anyway.
        """
        out = []
        for classid in sorted(self.classes):
            leaf = self.classes[classid]
            while leaf.queue:
                seg = leaf.queue.popleft()
                leaf.queued_bytes -= seg.size
                out.append(seg)
        self._len = 0
        self._bytes = 0
        return out

    def __len__(self) -> int:
        return self._len

    @property
    def backlog_bytes(self) -> int:
        return self._bytes

    def class_backlog(self, classid: int) -> int:
        return len(self._get(classid).queue)

    def __repr__(self) -> str:  # pragma: no cover
        leaves = {c.classid: len(c.queue) for c in self._leaves}
        return f"HTBQdisc(leaves={leaves})"
