"""Oracle tests for HTB's fast path.

A NIC-driven ``HTBQdisc`` whose tree keeps every ``ceil`` and every
interior ``rate`` at or above the line rate stops refilling and charging
those buckets (the "skipped" buckets) and walks only the leaf rate
buckets (``repro.net.qdisc.htb``; proof in docs/architecture.md).  These
tests drive it and the frozen full-walk reference in
``tests/net/htb_reference.py`` side by side, the way a NIC drives a
qdisc: a dequeue only once the previous segment has serialized at the
line rate, idle gaps, TLs-RR ``change_class(prio=)`` rotations and
line-rate degrade/restore.

* Inside the guard, both return the same segment on every dequeue and
  agree bit for bit on every leaf rate bucket, deficit and on the DRR
  rotation state.
* The proof as a property: whenever the fast path serves a dequeue,
  every bucket it skipped holds, in the reference, at least its burst
  minus the fast path's drift bound, and that is at least every head.
* Outside the guard (capped bands, small ``cburst``, a line rate above a
  ``ceil``) the fast path is never taken and every bucket stays bit-equal.
"""

from hypothesis import event, given, strategies as st

from repro.experiments import ExperimentConfig, Scenario
from repro.experiments.config import Policy
from repro.experiments.export import result_content_hash
from repro.experiments.runtime import materialize
from repro.faults import FaultPlan, HostCrash, NicDegrade, RecoverySpec
from repro.net.qdisc.htb import MIN_BURST_BYTES, HTBQdisc
from repro.net.qdisc.tbf import TOKEN_EPSILON
from repro.units import gbps

from tests.net.helpers import seg
from tests.net.test_htb_differential import (
    PORT_BASE,
    _bits,
    assert_same_state,
    build_pair,
)

LINKS = [1e4, 1e6, gbps(10)]


def tls_spec(link, n_bands, burst=None, cburst=None, capped=False):
    """The TensorLights tree (``Tc.install_tensorlights_htb``) as a spec."""
    classes = [(1, None, link, link, 0, 200 * 1024, None, None)]
    for band in range(n_bands):
        if capped:
            rate = ceil = link / n_bands
        else:
            rate, ceil = link * 1e-3, link
        classes.append((10 + band, 1, rate, ceil, band, 200 * 1024, burst, cburst))
    leaves = [10 + band for band in range(n_bands)]
    return {"classes": classes, "leaves": leaves, "default": leaves[-1], "link": link}


@st.composite
def tls_trees(draw):
    link = draw(st.sampled_from(LINKS))
    n_bands = draw(st.integers(1, 8))
    burst = cburst = None
    # small bursts fall below the guard's floor: the fast path must refuse
    if draw(st.sampled_from(["default", "default", "default", "small"])) == "small":
        burst = float(draw(st.integers(4000, 40000)))
        cburst = float(draw(st.integers(4000, 40000)))
    return tls_spec(link, n_bands, burst, cburst)


# up to the simulator's 256 KiB segments, which drain a band's rate bucket
# (and turn it yellow) within a few sends
sizes = st.one_of(st.integers(1, 9000), st.integers(9001, 256 * 1024))
enq = st.tuples(st.just("enq"), st.integers(0, 7), sizes, st.integers(1, 6))
send = st.tuples(st.just("send"), st.integers(1, 12))
# every program starts with a backlog and a drain, then anything goes
nic_ops = st.builds(
    lambda first, rest: [*first, *rest],
    st.tuples(enq, send),
    st.lists(
        st.one_of(
            enq, send, enq, send,
            st.tuples(st.just("idle"), st.floats(0.0, 3.0)),
            st.tuples(st.just("prio"), st.integers(0, 7), st.integers(0, 3)),
            st.tuples(st.just("rate"), st.sampled_from([0.1, 0.5, 1.0])),
        ),
        max_size=80,
    ),
)


def _virtual_tokens(b, now):
    """What refilling ``b`` at ``now`` would leave in it (nothing stored)."""
    if now > b.last_update:
        return min(b.burst, b.tokens + (now - b.last_update) * b.rate)
    return b.tokens


def skipped_pairs(new, ref):
    """(production bucket, reference bucket) for every bucket the fast path skips."""
    pairs = []
    for classid, cls in new.classes.items():
        other = ref.classes[classid]
        pairs.append((cls.cbucket, other.cbucket))
        if cls.children:
            pairs.append((cls.bucket, other.bucket))
    return pairs


def assert_same_leaf_state(new, ref):
    """Everything the fast path keeps: all but the skipped buckets."""
    assert len(new) == len(ref)
    assert new.backlog_bytes == ref.backlog_bytes
    assert new._serve_seq == ref._serve_seq
    assert new._last_served == ref._last_served
    for leaf in new._leaves:
        other = ref.classes[leaf.classid]
        b, rb = leaf.bucket, other.bucket
        assert (_bits(b.tokens), _bits(b.last_update)) == (
            _bits(rb.tokens), _bits(rb.last_update)
        ), f"leaf {leaf.classid} rate bucket diverged"
        assert _bits(leaf.deficit) == _bits(other.deficit)
        assert leaf.sent_bytes == other.sent_bytes
        assert all(a is c for a, c in zip(leaf.queue, other.queue))


class NicDrain:
    """Drives a production/reference pair the way ``NIC`` drains its qdisc.

    A dequeue happens only once the previous segment has serialized, at
    ``now + size / line_rate`` as ``NIC._tx_done`` computes it; a segment
    already serializing keeps the rate it started at.  When the qdisc is
    shaping, it waits until ``next_ready_time`` as the NIC's retry
    timer does.
    """

    def __init__(self, spec, line_factor=1.0):
        self.new, self.ref = build_pair(spec)
        self.spec = spec
        self.link = spec["link"]
        self.line = self.link * line_factor
        self.new.set_line_rate(self.line)
        self.now = 0.0
        self.free_at = 0.0
        self.fast_dequeues = 0
        #: the largest burst - tokens of a skipped reference bucket seen
        #: at a fast dequeue (proof checks only)
        self.deepest = 0.0

    def send(self, check_proof=False):
        new, ref = self.new, self.ref
        now = self.now = max(self.now, self.free_at)
        if check_proof:
            before = [(b, _virtual_tokens(rb, now)) for b, rb in skipped_pairs(new, ref)]
            heads = [c.queue[0].size for c in new._leaves if c.queue]
        out = new.dequeue(now)
        assert out is ref.dequeue(now)
        if new._fast and new._fast_last == now:
            self.fast_dequeues += 1
            if check_proof:
                drift = new._drift
                for b, tokens in before:
                    self.deepest = max(self.deepest, b.burst - tokens)
                    assert tokens >= b.burst - drift, "a skipped bucket drifted past the bound"
                    assert all(b.burst - drift >= size for size in heads)
                    assert all(tokens >= size - TOKEN_EPSILON for size in heads)
        if out is not None:
            self.free_at = now + out.size / self.line
        elif len(ref):
            ready = ref.next_ready_time(now)
            assert new.next_ready_time(now) == ready
            self.free_at = max(ready, now + 1e-9)
        return out

    def run(self, program, compare, check_proof=False):
        new, ref = self.new, self.ref
        leaves = self.spec["leaves"]
        tick = 9000 / self.link
        for op in program:
            kind = op[0]
            if kind == "enq":
                for _ in range(op[3]):
                    s = seg(op[2], sport=PORT_BASE + op[1] % len(leaves))
                    assert new.enqueue(s, self.now) == ref.enqueue(s, self.now)
            elif kind == "send":
                for _ in range(op[1]):
                    if self.send(check_proof) is None:
                        break
            elif kind == "idle":
                self.now += op[1] * tick
            elif kind == "prio":
                classid = leaves[op[1] % len(leaves)]
                new.change_class(classid, prio=op[2])
                ref.change_class(classid, prio=op[2])
            else:
                self.line = self.link * op[1]
                new.set_line_rate(self.line)
            compare(new, ref)


@given(spec=tls_trees(), program=nic_ops)
def test_fast_path_matches_reference_on_leaf_state(spec, program):
    drain = NicDrain(spec)
    drain.run(program, assert_same_leaf_state)
    event(f"fast dequeues: {'some' if drain.fast_dequeues else 'none'}")


@given(spec=tls_trees(), program=nic_ops)
def test_skipped_buckets_never_bind_in_the_reference(spec, program):
    drain = NicDrain(spec)
    drain.run(program, assert_same_leaf_state, check_proof=True)
    event(f"skipped buckets below burst: {'yes' if drain.deepest > 0 else 'no'}")


def test_back_to_back_drain_drifts_within_the_bound():
    """The proof's worst case: ``ceil == root rate == line rate`` and no
    idle gap, so the reference's skipped buckets really drift below their
    burst.  Every fast dequeue must still stay within the bound."""
    link = gbps(10)
    drain = NicDrain(tls_spec(link, 6))
    new, ref = drain.new, drain.ref
    for step in range(4000):
        band = step % 6
        for size in (1448, 9000) if step % 3 else (300,):
            s = seg(size, sport=PORT_BASE + band)
            new.enqueue(s, drain.now)
            ref.enqueue(s, drain.now)
        if step % 500 == 0:
            # three prios over six bands: every prio is shared, so both
            # green (early on) and yellow picks go through DRR
            for b in range(6):
                prio = (b + step // 500) % 3
                new.change_class(10 + b, prio=prio)
                ref.change_class(10 + b, prio=prio)
        drain.send(check_proof=True)
        assert_same_leaf_state(new, ref)
    assert drain.fast_dequeues == 4000
    assert 0.0 < drain.deepest < new._drift


def test_degrade_and_restore_keep_the_fast_path():
    """A lower line rate keeps every ``ceil >= line``: no exit, no reset."""
    drain = NicDrain(tls_spec(gbps(10), 3))
    new, ref = drain.new, drain.ref
    for step in range(300):
        s = seg(1448, sport=PORT_BASE + step % 3)
        new.enqueue(s, drain.now)
        ref.enqueue(s, drain.now)
        if step == 100:
            drain.line = gbps(1)
            new.set_line_rate(drain.line)
        elif step == 200:
            drain.line = gbps(10)
            new.set_line_rate(drain.line)
        drain.send(check_proof=True)
        assert_same_leaf_state(new, ref)
    assert drain.fast_dequeues == 300


def test_fast_path_resumes_only_once_every_skipped_bucket_is_full():
    """TLs installed at a degraded rate, restored, then degraded again.

    The restore lifts the line rate above every ceil after an idle gap
    (so the reset on leaving is exact), and the full walk drains the ceil
    buckets while it shapes.  Back at the degraded rate the guard holds
    again, but the fast path must wait until the buckets are full: here,
    until the next idle gap."""
    link = gbps(10)
    drain = NicDrain(tls_spec(link / 2, 3))
    new, ref = drain.new, drain.ref

    def busy(n):
        for step in range(n):
            s = seg(9000, sport=PORT_BASE + step % 3)
            new.enqueue(s, drain.now)
            ref.enqueue(s, drain.now)
            drain.send(check_proof=True)
            assert_same_leaf_state(new, ref)

    def set_line(rate):
        drain.line = rate
        new.set_line_rate(rate)

    busy(200)
    assert drain.fast_dequeues == 200
    drain.now += 1.0
    set_line(link)
    assert not new._guard
    busy(400)
    assert drain.fast_dequeues == 200
    root = ref.classes[1].cbucket
    assert _virtual_tokens(root, drain.now) < root.burst / 2  # the ceil bound
    set_line(link / 2)
    assert new._guard
    busy(400)
    assert drain.fast_dequeues == 200
    drain.now += 1.0
    busy(100)
    assert drain.fast_dequeues == 300


outside_guard = st.one_of(
    # work_conserving=False: each band capped at its share of the link
    st.builds(
        lambda link, n: (tls_spec(link, n, capped=True), 1.0),
        st.sampled_from(LINKS), st.integers(2, 8),
    ),
    # a cburst below the default floor
    st.builds(
        lambda link, n, cburst: (tls_spec(link, n, cburst=float(cburst)), 1.0),
        st.sampled_from(LINKS), st.integers(1, 8), st.integers(4000, MIN_BURST_BYTES - 1),
    ),
    # a root whose rate is below the line rate: it may refuse to lend
    st.builds(
        lambda link, n: (
            {**tls_spec(link, n),
             "classes": [(1, None, link / 2, link, 0, 200 * 1024, None, None)]
             + tls_spec(link, n)["classes"][1:]},
            1.0,
        ),
        st.sampled_from(LINKS), st.integers(1, 8),
    ),
    # a line rate above every ceil (TLs installed at a degraded rate)
    st.builds(
        lambda link, n, factor: (tls_spec(link, n), factor),
        st.sampled_from(LINKS), st.integers(1, 8), st.sampled_from([1.5, 10.0]),
    ),
)


@given(case=outside_guard, program=nic_ops.map(
    lambda ops: [op for op in ops if op[0] != "rate"]))
def test_trees_outside_the_guard_walk_the_full_tree(case, program):
    spec, line_factor = case
    drain = NicDrain(spec, line_factor)

    def compare(new, ref):
        assert not new._guard and not new._fast
        assert_same_state(new, ref)

    drain.run(program, compare)
    assert drain.fast_dequeues == 0


def test_standalone_qdisc_walks_the_full_tree():
    new, _ = build_pair(tls_spec(gbps(10), 2))
    assert new.line_rate is None and not new._guard
    new.enqueue(seg(1448, sport=PORT_BASE), 0.0)
    assert new.dequeue(0.0) is not None
    assert not new._fast


def test_class_changes_reevaluate_the_guard():
    new, _ = build_pair(tls_spec(gbps(10), 2))
    new.set_line_rate(gbps(10))
    assert new._guard
    new.change_class(10, ceil=gbps(5))
    assert not new._guard
    new.change_class(10, ceil=gbps(10))
    assert new._guard
    new.change_class(10, prio=5)
    assert new._guard
    new.change_class(1, rate=gbps(5))  # the root may no longer lend
    assert not new._guard
    new.change_class(1, rate=gbps(10))
    assert new._guard
    new.set_line_rate(gbps(20))
    assert not new._guard


#: result hash of the run below, computed before the fast path existed
DEGRADED_INSTALL_HASH = "87d44d1a6cd64bb3a8cb88c312803a6bd7ad07ad2b118b2fae97fe1eb6a8c989"


def test_tls_installed_during_nic_degrade_then_restored_keeps_its_hash(monkeypatch):
    """The PS host crashes during a NicDegrade; on recovery the controller
    re-installs TLs at the degraded rate, so every ceil is half the link.
    The restore then lifts the line rate above every ceil: the fast path
    is left (the one transition that resets skipped buckets) and the
    full walk shapes the PS NIC from there on."""
    config = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=10,
                                   policy=Policy.TLS_ONE)
    plan = FaultPlan(
        faults=(
            NicDegrade(host="h00", at=0.05, factor=0.5, duration=0.5),
            HostCrash(host="h00", at=0.1, recover_after=0.05),
        ),
        recovery=RecoverySpec(barrier_mode="proceed", barrier_timeout=0.3,
                              barrier_grace=1),
    )
    rate_changes = []
    set_line_rate = HTBQdisc.set_line_rate

    def recording(self, rate):
        was_fast = self._fast
        set_line_rate(self, rate)
        rate_changes.append((self, rate, was_fast, self._guard))

    monkeypatch.setattr(HTBQdisc, "set_line_rate", recording)
    rt = materialize(Scenario(config, faults=plan))
    assert {app.ps_host_id for app in rt.apps} == {"h00"}
    result = rt.run()
    link = config.link_rate
    degraded = [q for q, *_ in rate_changes if q.classes[1].ceil == link * 0.5]
    assert degraded, "TLs was never installed at the degraded rate"
    htb = degraded[0]
    # installed inside the guard; fast when the restore breaks it
    assert [change[1:] for change in rate_changes if change[0] is htb] == [
        (link * 0.5, False, True), (link, True, False),
    ]
    assert result_content_hash(result) == DEGRADED_INSTALL_HASH
