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
token count, and with it the fixed-seed content hashes.  Every backlogged
leaf's *rate* bucket is refilled on every dequeue, exactly as a walk of
the class tree would, never lazily: those buckets decide green against
yellow.

The other buckets (every ``ceil`` bucket, and the rate bucket of every
interior class) are refilled and charged only while they may bind.  A
NIC tells its qdisc its line rate ``L`` (:meth:`HTBQdisc.set_line_rate`)
and never dequeues two segments closer than the first one's
serialization time.  When every ``ceil >= L``, every interior
``rate >= L`` and every leaf has a parent, each of those buckets regains
at least what it was charged before the next dequeue, so it stays full
up to float drift.  The qdisc then takes a fast path that refills and
charges only the leaf rate buckets.  It keeps an upper bound on the drift
and checks every head segment against ``burst - drift``.  The proof, the
margin and the one transition where bucket bits can differ from the full
tree walk are in ``docs/architecture.md`` ("Single-pass HTB dequeue").
A qdisc that no NIC drives (``line_rate is None``) always walks the tree.
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
#: Float drift bound per fast-path dequeue, per byte/s of rate and second
#: of clock plus per byte of burst: 2**-50 >= 8 * 2**-53 covers one clock
#: rounding, one refill and one charge (docs/architecture.md).
DRIFT_PER_UNIT = 2.0**-50


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
        #: the driving NIC's line rate (bytes/s); None while no NIC drives it
        self.line_rate: Optional[float] = None
        # Fast path (module docstring).  ``_guard``: the tree and line rate
        # make every bucket in ``_skipped`` non-binding.  ``_fast``: the
        # skipped buckets are no longer refilled or charged.  ``_drift``
        # bounds how far below its burst any of them would be under the
        # full walk, as of the dequeue at ``_fast_last``.
        self._guard = False
        self._fast = False
        self._skipped: List[TokenBucket] = []
        self._min_burst = 0.0
        self._drift_per_s = 0.0
        self._drift_per_deq = 0.0
        self._idle_gap = 0.0
        self._drift = 0.0
        self._fast_last = 0.0

    def _rebuild_leaves(self) -> None:
        self._leaves = [c for c in self.classes.values() if c.is_leaf]
        self._leaf_by_id = {c.classid: c for c in self._leaves}

    # -- fast-path guard ------------------------------------------------------

    def set_line_rate(self, rate: float) -> None:
        """Called by the NIC that drains this qdisc, whenever its rate is set."""
        self.line_rate = rate
        self._update_guard()

    def _update_guard(self) -> None:
        """Recompute the guard after a configuration or line-rate change.

        The fast path survives a change that keeps the guard: a segment
        still serializing went out at the old rate, which the old guard
        already bounded by every skipped bucket's rate.
        """
        line = self.line_rate
        skipped: List[TokenBucket] = []
        guard = line is not None and bool(self._leaves)
        for cls in self.classes.values():
            skipped.append(cls.cbucket)
            if cls.children:
                skipped.append(cls.bucket)
                guard = guard and cls.rate >= line
            elif cls.parent is None:
                guard = False  # a root leaf has no lender
            guard = guard and cls.ceil >= line
        # A burst below the default floor (set explicitly) could come within
        # the drift margin of a head segment, and leaving the fast path
        # there would not be exact; such trees keep the full walk.
        guard = guard and all(b.burst >= MIN_BURST_BYTES for b in skipped)
        if not guard:
            self._leave_fast()
        self._guard = guard
        self._skipped = skipped
        if guard:
            self._min_burst = min(b.burst for b in skipped)
            self._drift_per_s = max(b.rate for b in skipped) * DRIFT_PER_UNIT
            self._drift_per_deq = max(b.burst for b in skipped) * DRIFT_PER_UNIT
            # After this long without a dequeue every skipped bucket has
            # refilled from >= 0 tokens to exactly its burst.
            self._idle_gap = max(b.burst / b.rate for b in skipped) * (1.0 + 2.0**-40)

    def _enter_fast(self, now: float) -> bool:
        """Take the fast path if every skipped bucket is full at ``now``.

        The test evaluates each bucket's refill expression without storing
        it, so a refusal leaves every bit as the full walk expects.
        """
        for b in self._skipped:
            tokens = b.tokens
            if now > b.last_update:
                tokens += (now - b.last_update) * b.rate
            if tokens < b.burst:
                return False
        self._fast = True
        self._drift = 0.0
        self._fast_last = now
        return True

    def _leave_fast(self) -> None:
        """Back to the full walk: the skipped buckets restart full."""
        if self._fast:
            self._fast = False
            for b in self._skipped:
                b.tokens = b.burst

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
        self._leave_fast()
        self._update_guard()
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
        if rate is not None or ceil is not None:
            self._update_guard()

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
        self._leave_fast()
        self._update_guard()
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
        if not self._fast and not (self._guard and self._enter_fast(now)):
            return self._dequeue_full(now)

        # Fast path: the skipped buckets all pass, so a leaf is green iff
        # its rate bucket passes, and every backlogged leaf can borrow from
        # its parent.  First bound their drift as of ``now``.
        if now - self._fast_last >= self._idle_gap:
            drift = 0.0
        else:
            drift = self._drift + self._drift_per_s * now + self._drift_per_deq
        limit = self._min_burst - drift
        green = yellow = None
        gprio = yprio = 0
        gtie = ytie = False
        for leaf in self._leaves:
            queue = leaf.queue
            if not queue:
                continue
            size = queue[0].size
            if size > limit:
                # A skipped bucket might bind: walk the tree from here on.
                self._leave_fast()
                self._guard = False
                return self._dequeue_full(now)
            b = leaf.bucket
            tokens = b.tokens
            if now > b.last_update:
                # min(burst, ...) without the call: the same float
                tokens += (now - b.last_update) * b.rate
                if tokens > b.burst:
                    tokens = b.burst
                b.tokens = tokens
                b.last_update = now
            prio = leaf.prio
            if tokens >= size - TOKEN_EPSILON:
                if green is None or prio < gprio:
                    green, gprio, gtie = leaf, prio, False
                elif prio == gprio:
                    gtie = True
            elif yellow is None or prio < yprio:
                yellow, yprio, ytie = leaf, prio, False
            elif prio == yprio:
                ytie = True

        # Priority first; DRR among equal priorities.  Without a green leaf
        # every backlogged leaf is yellow.
        if green is not None:
            leaf = green
            if gtie:
                leaf = self._drr([
                    c for c in self._leaves
                    if c.queue and c.prio == gprio
                    and c.bucket.tokens >= c.queue[0].size - TOKEN_EPSILON
                ])
        else:
            leaf = yellow
            if ytie:
                leaf = self._drr([c for c in self._leaves if c.queue and c.prio == yprio])
        self._serve_seq += 1
        self._last_served[leaf.classid] = self._serve_seq

        seg = leaf.queue.popleft()
        size = seg.size
        leaf.queued_bytes -= size
        if leaf.deficit:  # max(0.0, deficit - size); DRR alone sets it
            leaf.deficit = leaf.deficit - size if leaf.deficit > size else 0.0
        self._len -= 1
        self._bytes -= size
        if green is not None:
            leaf.bucket.tokens -= size
        leaf.sent_bytes += size
        self._drift = drift
        self._fast_last = now
        return seg

    def _dequeue_full(self, now: float) -> Optional[Segment]:
        """The tree walk: refills and charges every bucket the classic
        green/yellow tests touch (the fast path's reference)."""
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

    def __repr__(self) -> str:  # pragma: no cover
        leaves = {c.classid: len(c.queue) for c in self._leaves}
        return f"HTBQdisc(leaves={leaves})"
