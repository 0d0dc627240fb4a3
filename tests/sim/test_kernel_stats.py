"""Kernel event-queue statistics regressions.

Pins the ``NIC._arm_retry`` fix: on a paced (HTB, ``rate == ceil``) qdisc every
``_kick`` used to cancel and re-arm the retry timer even when the newly
computed ready time was identical, feeding the tombstone compactor one
dead event per enqueue.  ``EventQueue.cancels`` counts every cancel, so
the churn is directly observable.
"""

from repro.net.addressing import FlowKey
from repro.net.nic import NIC
from repro.net.packet import Message, segment_message
from repro.net.qdisc import HTBQdisc
from repro.sim import Simulator


def _burst_through_shaper(n_segments):
    """Send ``n_segments`` through a shaped class so throttled kicks repeat.

    Exact-float rates and sizes (powers of two) so every ready-time
    recomputation lands on the same float while the bucket refills.
    """
    sim = Simulator(seed=0)
    nic = NIC(sim, "h0", rate=1024.0)
    # bucket fits exactly one segment: every segment beyond the first
    # throttles, and each send while throttled re-kicks the serializer
    shaper = HTBQdisc(default_classid=1)
    shaper.add_class(1, rate=512.0, ceil=512.0, burst=256.0, cburst=256.0)
    nic.set_qdisc(shaper)
    delivered = []
    nic.attach_link(lambda seg: delivered.append((sim.now, seg.index)), 1e-6)
    msg = Message(flow=FlowKey("h0", 1, "h1", 9000), size=256 * n_segments)
    for seg in segment_message(msg, 256):
        nic.send(seg)
    sim.run()
    assert len(delivered) == n_segments
    return sim


def test_same_deadline_rearm_is_skipped():
    sim = _burst_through_shaper(16)
    # Before the fix each throttled kick produced one cancel; with the
    # same-deadline skip the retry timer is armed once per throttle
    # window and survives untouched.  Allow a small constant for the
    # dequeue-side cancel when service resumes.
    assert sim.events.cancels <= 2, (
        f"retry-timer churn: {sim.events.cancels} cancels for 16 segments"
    )


def test_cancel_counter_counts_each_cancel():
    sim = Simulator(seed=0)
    evs = [sim.schedule(1.0 + i, lambda: None) for i in range(5)]
    for ev in evs[:3]:
        sim.cancel(ev)
    assert sim.events.cancels == 3
    # cancelling an already-cancelled event is idempotent
    sim.cancel(evs[0])
    assert sim.events.cancels == 3
    sim.run()
    assert sim.events.cancels == 3
