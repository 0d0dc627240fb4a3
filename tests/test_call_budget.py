"""Call budgets: Python frames per simulated run stay where they are.

Every simulated message crosses the same hops (task -> transport ->
NIC -> fabric port -> transport -> mailbox -> process resume), and the
pinned result hashes fix how many messages and events a scenario has.
So the number of Python ``call`` events a fixed scenario makes is a
deterministic measure of per-hop overhead, free of wall-clock noise.
These budgets are upper bounds set at the measured counts: a change
that adds a frame to the message path fails here; one that removes
frames lowers the budget in the same change.

The per-segment hops — ``NIC.send``/``_kick``/``_tx_done``,
``VirtualOutputPort.admit``/``enqueue``/``settle``, the exact-type
``PFifo`` enqueue and dequeue, and ``Transport._on_segment_serialized``/
``_on_segment_arrival`` — are compiled (``repro.net._segpath``) and make
no ``call`` events; what is counted is the Python left on the message
path: ``send_message`` and segmenting, the loss-recovery and retry
branches, the delivery listeners and the processes they resume.

Counted with ``sys.setprofile`` around ``Runtime.run`` only (launch,
event loop, result collection), after one untimed run of the same
scenario so that first-use work (lazy imports, caches) is not counted,
and with the collector off so no ``gc.callbacks`` hook is counted.
Before the message path was cut to one frame per hop the same counts
were 12,522 (ring) and 12,296 (PS FIFO); with one Python frame per hop
they were 9,031 and 10,495.

Counts are interpreter-specific (3.12 reports profile events through
``sys.monitoring``), so each CPython version has its own measured
budget; a version without one is skipped until its count is recorded.
"""

import gc
import sys

import pytest

from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario

SCENARIOS = {
    # 2 rings x 4 members x 5 iterations x 6 steps = 240 chunks, 2 segments each
    "ring": ExperimentConfig(
        iterations=5, n_jobs=2, n_workers=4,
        architecture=Architecture.ALLREDUCE, seed=1,
    ),
    "ps-fifo": ExperimentConfig(
        iterations=3, n_jobs=4, n_workers=4, placement_index=1,
        policy=Policy.FIFO, seed=1,
    ),
}

#: measured ``call`` events per scenario, by CPython (major, minor)
BUDGETS = {
    (3, 11): {"ring": 4834, "ps-fifo": 4840},
}


def count_calls(config: ExperimentConfig) -> int:
    """Python ``call`` events made by one ``Runtime.run`` of ``config``."""
    scenario = Scenario(config)
    materialize(scenario).run()  # warm: first-use work is not counted
    runtime = materialize(scenario)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        runtime.run()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_message_path_call_budget(name):
    budgets = BUDGETS.get(sys.version_info[:2])
    if budgets is None:
        pytest.skip(f"no call budget measured on Python {sys.version_info[:2]}")
    calls = count_calls(SCENARIOS[name])
    assert calls <= budgets[name], (
        f"{name}: {calls} Python calls, budget {budgets[name]} — a frame "
        "was added on the message path"
    )
