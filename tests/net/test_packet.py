"""Unit tests for messages, segments and flow keys."""

import copy
import dataclasses
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.net.addressing import FlowKey
from repro.net.packet import Message, segment_message

from tests.net.helpers import flow


def test_flow_key_reversed():
    f = FlowKey("a", 1, "b", 2)
    r = f.reversed()
    assert r == FlowKey("b", 2, "a", 1)
    assert r.reversed() == f


def test_flow_key_hashable_and_str():
    f = FlowKey("a", 1, "b", 2)
    assert {f: 1}[FlowKey("a", 1, "b", 2)] == 1
    assert str(f) == "a:1->b:2"


# FlowKey is a named tuple and Message a dataclass with a hand-written
# __init__; these pin what the earlier hand-rolled FlowKey class and the
# fully generated Message dataclass guaranteed.

_KEY_FIELDS = st.tuples(
    st.text(max_size=8), st.integers(0, 65535),
    st.text(max_size=8), st.integers(0, 65535),
)


@given(st.lists(_KEY_FIELDS, max_size=20))
def test_flow_key_hash_is_the_field_tuple_hash(fields):
    keys = [FlowKey(*f) for f in fields]
    assert [hash(k) for k in keys] == [hash(f) for f in fields]
    # equal hashes and insertion order: dict and set orders cannot move
    assert [tuple(k) for k in set(keys)] == list(set(fields))
    assert [tuple(k) for k in dict.fromkeys(keys)] == list(dict.fromkeys(fields))


@pytest.mark.parametrize(
    "name", ["src_host", "src_port", "dst_host", "dst_port", "other"]
)
def test_flow_key_is_immutable(name):
    f = FlowKey("a", 1, "b", 2)
    with pytest.raises(AttributeError):
        setattr(f, name, 3)
    assert f == FlowKey("a", 1, "b", 2)


def test_flow_key_text():
    f = FlowKey("ps0", 5000, "w1", 6001)
    assert f.reversed() == FlowKey("w1", 6001, "ps0", 5000)
    assert type(f.reversed()) is FlowKey
    assert str(f) == "ps0:5000->w1:6001"
    assert repr(f) == (
        "FlowKey(src_host='ps0', src_port=5000, dst_host='w1', dst_port=6001)"
    )


def test_record_flow_keys_records_one_construction(record_flow_keys):
    built = record_flow_keys()
    key = FlowKey("a", 1, "b", 2)
    assert built == [key]
    assert built[0] is key and type(key) is FlowKey


def test_message_requires_positive_size():
    for size in (0, -1):
        with pytest.raises(NetworkError):
            Message(flow=flow(), size=size)


def test_message_ids_unique():
    a = Message(flow=flow(), size=1)
    b = Message(flow=flow(), size=1)
    assert b.msg_id > a.msg_id  # unique, and increasing


def test_message_meta_is_per_message():
    a = Message(flow=flow(), size=1)
    b = Message(flow=flow(), size=1)
    assert a.meta == {} and b.meta == {}
    assert a.meta is not b.meta
    meta = {"job": "j0"}
    assert Message(flow(), 1, "k", meta).meta is meta


@dataclass
class _GeneratedMessage:
    """The fully generated dataclass Message had: the eq/repr reference."""

    flow: FlowKey
    size: int
    kind: str = "data"
    meta: dict = field(default_factory=dict)
    msg_id: int = 0
    created_at: float = -1.0
    delivered_at: float = -1.0


def test_message_eq_and_repr_match_the_generated_dataclass():
    m = Message(flow(), 10, "gradient_update", {"job": "j0"})
    m.created_at = 0.5
    ref = _GeneratedMessage(
        m.flow, 10, "gradient_update", {"job": "j0"}, m.msg_id, 0.5
    )
    assert [f.name for f in dataclasses.fields(Message)] == [
        f.name for f in dataclasses.fields(_GeneratedMessage)
    ]
    assert repr(m) == repr(ref).replace("_GeneratedMessage", "Message", 1)
    twin = copy.copy(m)
    assert twin == m and twin is not m
    twin.delivered_at = 1.0
    assert twin != m
    assert m != ref  # value eq is per class, as generated


def test_message_latency_requires_delivery():
    m = Message(flow=flow(), size=10)
    with pytest.raises(NetworkError):
        _ = m.latency
    m.created_at = 1.0
    m.delivered_at = 3.5
    assert m.latency == 2.5


def test_segment_message_exact_multiple():
    m = Message(flow=flow(), size=300)
    segs = segment_message(m, 100)
    assert [s.size for s in segs] == [100, 100, 100]
    assert [s.index for s in segs] == [0, 1, 2]
    assert [s.is_last for s in segs] == [False, False, True]


def test_segment_message_remainder():
    m = Message(flow=flow(), size=250)
    segs = segment_message(m, 100)
    assert [s.size for s in segs] == [100, 100, 50]
    assert segs[-1].is_last


def test_segment_message_smaller_than_segment():
    m = Message(flow=flow(), size=10)
    [s] = segment_message(m, 100)
    assert s.size == 10 and s.is_last and s.index == 0


def test_segment_message_invalid_segment_bytes():
    m = Message(flow=flow(), size=10)
    with pytest.raises(NetworkError):
        segment_message(m, 0)


def test_segment_flow_is_message_flow():
    m = Message(flow=flow(), size=10)
    [s] = segment_message(m, 100)
    assert s.flow is m.flow


@given(
    st.integers(min_value=1, max_value=1_000_000),
    st.integers(min_value=64, max_value=1_000_000),
)
def test_property_segmentation_conserves_bytes(size, segment_bytes):
    m = Message(flow=flow(), size=size)
    segs = segment_message(m, segment_bytes)
    assert sum(s.size for s in segs) == size
    assert all(0 < s.size <= segment_bytes for s in segs)
    assert [s.index for s in segs] == list(range(len(segs)))
    assert sum(s.is_last for s in segs) == 1 and segs[-1].is_last
