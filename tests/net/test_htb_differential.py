"""Differential oracle: the single-pass HTB datapath against the frozen
multi-pass reference in ``tests/net/htb_reference.py``.

Both qdiscs are built from the same generated class tree (depth 1-3,
including the TensorLights shape and capped ``rate == ceil`` shapes) and
driven by the same generated operations at non-decreasing timestamps:
enqueues, dequeues, ``next_ready_time`` probes, waits until the reported
ready time, and ``change_class(prio=...)`` rotations like the ones
TLs-RR makes.  After every operation they must return the same segment object or
the same ready time, and agree bit for bit on every bucket's
``(tokens, last_update)``, on deficits and on the DRR rotation state.
Any extra or missing refill at some instant shows up as a token count
that differs in its last bits.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.net.qdisc import HTBQdisc, PortFilter
from repro.units import gbps

from tests.net import htb_reference
from tests.net.helpers import seg

PORT_BASE = 5000
#: a source port no filter matches: classified to the default class
UNMATCHED_PORT = 4999
#: a port mapped to the (interior) root class: falls back to the default
ROOT_PORT = 4998


def _bits(x):
    return type(x).__name__, float(x).hex()


def assert_same_state(new, ref):
    assert len(new) == len(ref)
    assert new.backlog_bytes == ref.backlog_bytes
    assert new.drops == ref.drops
    assert new._serve_seq == ref._serve_seq
    assert new._last_served == ref._last_served
    assert list(new.classes) == list(ref.classes)
    for classid, cls in new.classes.items():
        other = ref.classes[classid]
        for b, rb in ((cls.bucket, other.bucket), (cls.cbucket, other.cbucket)):
            assert (_bits(b.tokens), _bits(b.last_update)) == (
                _bits(rb.tokens), _bits(rb.last_update)
            ), f"class {classid} bucket diverged"
        assert _bits(cls.deficit) == _bits(other.deficit), f"class {classid} deficit"
        assert cls.sent_bytes == other.sent_bytes
        assert cls.queued_bytes == other.queued_bytes
        assert len(cls.queue) == len(other.queue)
        assert all(a is b for a, b in zip(cls.queue, other.queue))


def build_pair(spec):
    """Build the production and the reference qdisc from one tree spec."""
    pair = []
    for qdisc_cls in (HTBQdisc, htb_reference.HTBQdisc):
        filt = PortFilter()
        q = qdisc_cls(filter=filt, default_classid=spec["default"])
        for classid, parent, rate, ceil, prio, quantum, burst, cburst in spec["classes"]:
            q.add_class(
                classid, rate=rate, ceil=ceil, prio=prio, quantum=quantum,
                parent=parent, burst=burst, cburst=cburst,
            )
        for i, classid in enumerate(spec["leaves"]):
            filt.add_match(PORT_BASE + i, classid)
        filt.add_match(ROOT_PORT, 1)
        pair.append(q)
    return pair


@st.composite
def trees(draw):
    """A class tree of depth 1-3 as ``add_class`` argument tuples."""
    link = draw(st.sampled_from([1e4, 1e6, gbps(10)]))
    depth = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["tls", "capped", "free"]))
    bursts = draw(st.sampled_from(["default", "small"]))

    def burst():
        if bursts == "default":
            return None
        return float(draw(st.integers(4000, 40000)))

    classes = [(1, None, link, link, 0, 200 * 1024, burst(), burst())]
    if depth == 1:
        return {"classes": classes, "leaves": [1], "default": 1, "link": link}

    parents = [1]
    next_id = 2
    if depth == 3:
        parents = []
        for _ in range(draw(st.integers(1, 2))):
            rate = link * draw(st.sampled_from([0.25, 0.5, 1.0]))
            ceil = draw(st.sampled_from([rate, link]))
            classes.append((next_id, 1, rate, ceil, 0, 200 * 1024, burst(), burst()))
            parents.append(next_id)
            next_id += 1

    leaves = []
    n_leaves = draw(st.integers(1, 4))
    for band in range(n_leaves):
        parent = parents[band % len(parents)]
        if shape == "tls":
            rate, ceil, prio = link * 1e-3, link, band
        elif shape == "capped":
            rate = ceil = link / n_leaves
            prio = 0
        else:
            rate = link * draw(st.sampled_from([1e-3, 0.1, 0.5]))
            ceil = draw(st.sampled_from([rate, link / 2, link]))
            prio = draw(st.integers(0, 2))
        quantum = draw(st.sampled_from([500, 3000, 200 * 1024]))
        classes.append((next_id, parent, rate, ceil, prio, quantum, burst(), burst()))
        leaves.append(next_id)
        next_id += 1
    default = draw(st.sampled_from([None, 1, 999, leaves[-1]]))
    return {"classes": classes, "leaves": leaves, "default": default, "link": link}


ops = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(-2, 3), st.integers(1, 9000)),
        st.tuples(st.just("deq"), st.integers(1, 6)),
        st.tuples(st.just("nrt")),
        st.tuples(st.just("wait")),
        st.tuples(st.just("prio"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("tick"), st.floats(0.0, 3.0)),
    ),
    max_size=60,
)


def port_for(index, n_leaves):
    if index == -2:
        return ROOT_PORT
    if index == -1 or index >= n_leaves:
        return UNMATCHED_PORT
    return PORT_BASE + index


# 150 examples at least; a heavier profile (``--hypothesis-profile=heavy``)
# searches harder.
@settings(max_examples=max(150, settings.default.max_examples))
@given(spec=trees(), program=ops)
def test_single_pass_dequeue_matches_reference_bit_for_bit(spec, program):
    new, ref = build_pair(spec)
    leaves = spec["leaves"]
    # one tick is about one max-size segment's serialization at link rate
    tick = 9000 / spec["link"]
    now = 0.0
    for op in program:
        kind = op[0]
        if kind == "enq":
            s = seg(op[2], sport=port_for(op[1], len(leaves)))
            assert new.enqueue(s, now) == ref.enqueue(s, now)
        elif kind == "deq":
            for _ in range(op[1]):
                out = new.dequeue(now)
                assert out is ref.dequeue(now)
                if out is None:
                    break
        elif kind == "nrt":
            a, b = new.next_ready_time(now), ref.next_ready_time(now)
            assert (a is None) == (b is None)
            if a is not None:
                assert _bits(a) == _bits(b)
        elif kind == "wait":
            ready = ref.next_ready_time(now)
            assert new.next_ready_time(now) == ready
            if ready is not None and ready > now:
                now = ready
        elif kind == "prio":
            classid = leaves[op[1] % len(leaves)]
            new.change_class(classid, prio=op[2])
            ref.change_class(classid, prio=op[2])
        else:
            now += op[1] * tick
        assert_same_state(new, ref)


def test_tls_shape_under_nic_like_drain_matches_reference():
    """A long TLs-RR-style run: six bands at 10 Gbit/s, MTU-sized segments
    drained at link rate, and a band rotation every few hundred segments."""
    link = gbps(10)
    spec = {
        "classes": [(1, None, link, link, 0, 200 * 1024, None, None)]
        + [
            (10 + band, 1, link * 1e-3, link, band, 200 * 1024, None, None)
            for band in range(6)
        ],
        "leaves": [10 + band for band in range(6)],
        "default": 15,
        "link": link,
    }
    new, ref = build_pair(spec)
    rng = random.Random(7)
    now = 0.0
    rotation = 0
    for step in range(6000):
        for _ in range(rng.choice((0, 0, 1, 3))):
            s = seg(rng.choice((1448, 1448, 9000, 300)), sport=PORT_BASE + rng.randrange(6))
            new.enqueue(s, now)
            ref.enqueue(s, now)
        out = new.dequeue(now)
        assert out is ref.dequeue(now)
        if out is not None:
            now += out.size / link
        else:
            ready = ref.next_ready_time(now)
            assert new.next_ready_time(now) == ready
            now = ready if ready is not None else now + 1e-5
        if step % 400 == 399:
            rotation += 1
            for band in range(6):
                prio = (band + rotation) % 6
                new.change_class(10 + band, prio=prio)
                ref.change_class(10 + band, prio=prio)
        assert_same_state(new, ref)
