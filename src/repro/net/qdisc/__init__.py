"""Queueing disciplines, mirroring the Linux ``tc`` qdisc family.

All qdiscs implement :class:`~repro.net.qdisc.base.Qdisc`:

* :class:`~repro.net.qdisc.fifo.PFifo` — the default FIFO (the paper's
  baseline policy),
* :class:`~repro.net.qdisc.htb.HTBQdisc` — hierarchical token bucket with
  rate/ceil borrowing and class priorities (what TensorLights configures),
* :class:`~repro.net.qdisc.drr.DRRQdisc` — per-flow fair queueing
  (an ablation baseline the paper does not evaluate).

Time is passed explicitly (``enqueue(seg, now)`` / ``dequeue(now)``) so
every qdisc is testable without a simulator.  Non-work-conserving qdiscs
report when they will next be able to send via ``next_ready_time(now)``.
"""

from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.fifo import PFifo
from repro.net.qdisc.htb import HTBClass, HTBQdisc
from repro.net.qdisc.drr import DRRQdisc
from repro.net.qdisc.netem import NetemQdisc
from repro.net.qdisc.filters import FlowFilter, PortFilter

__all__ = [
    "DRRQdisc",
    "FlowFilter",
    "HTBClass",
    "HTBQdisc",
    "NetemQdisc",
    "PFifo",
    "PortFilter",
    "Qdisc",
]
