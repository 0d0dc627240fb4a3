"""Messages and segments.

Applications exchange :class:`Message` objects (a model update, a gradient
update).  The transport slices a message into :class:`Segment` objects —
the unit the NIC serializes.  Segment size is configurable; it plays the
role of the TCP segment/MTU, scaled up so that simulations stay fast while
preserving the interleaving granularity that matters (see DESIGN.md §5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import NetworkError
from repro.net.addressing import FlowKey

_message_ids = itertools.count()


@dataclass(slots=True, init=False)
class Message:
    """An application-level transfer over one flow.

    Attributes:
        flow: sender -> receiver addressing.
        size: payload bytes.
        kind: application tag (``"model_update"``, ``"gradient_update"``...).
        meta: free-form application metadata (job id, iteration, ...).
        msg_id: process-wide increasing id (reassembly key).
        created_at: simulated send time (stamped by the transport).
        delivered_at: simulated full-reassembly time at the receiver.

    A dataclass for the value ``==`` and the field ``repr``, with a
    hand-written ``__init__``: one message is built per transfer, and
    the generated one adds a ``default_factory`` call and a
    ``__post_init__`` frame to each.
    """

    flow: FlowKey
    size: int
    kind: str
    meta: Dict[str, Any]
    msg_id: int = field(init=False)
    created_at: float = field(init=False)
    delivered_at: float = field(init=False)

    def __init__(
        self,
        flow: FlowKey,
        size: int,
        kind: str = "data",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if size <= 0:
            raise NetworkError(f"message size must be positive, got {size}")
        self.flow = flow
        self.size = size
        self.kind = kind
        self.meta = {} if meta is None else meta
        self.msg_id = next(_message_ids)
        self.created_at = -1.0
        self.delivered_at = -1.0

    @property
    def latency(self) -> float:
        """Delivery latency; valid once delivered."""
        if self.delivered_at < 0 or self.created_at < 0:
            raise NetworkError("message not delivered yet")
        return self.delivered_at - self.created_at


class Segment:
    """One NIC-serializable slice of a message.

    ``flow`` is copied out of the message at construction: it is read on
    every classify/enqueue/transport hop, and a direct slot beats a
    property + attribute chase on the per-segment hot path.  A plain
    class rather than a dataclass: the generated ``__init__`` +
    ``__post_init__`` pair is two call frames per segment, and segments
    are identity objects (never compared by value).
    """

    __slots__ = ("message", "index", "size", "is_last", "flow")

    def __init__(self, message: Message, index: int, size: int,
                 is_last: bool) -> None:
        self.message = message
        self.index = index
        self.size = size
        self.is_last = is_last
        self.flow = message.flow

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Seg msg={self.message.msg_id} #{self.index} {self.size}B>"


def segment_message(message: Message, segment_bytes: int) -> list[Segment]:
    """Slice ``message`` into segments of at most ``segment_bytes``."""
    if segment_bytes <= 0:
        raise NetworkError(f"segment_bytes must be positive, got {segment_bytes}")
    segments: list[Segment] = []
    append = segments.append
    remaining = message.size
    index = 0
    while remaining > segment_bytes:
        append(Segment(message, index, segment_bytes, False))
        remaining -= segment_bytes
        index += 1
    append(Segment(message, index, remaining, True))
    return segments
