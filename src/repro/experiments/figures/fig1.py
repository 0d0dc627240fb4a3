"""Figure 1: the PS-architecture workflow, as a measured event trace.

The paper's Figure 1 is a schematic sequence diagram (one PS, two
workers, two iterations: model updates down, gradient updates up, barrier
at the PS).  We reproduce it by running exactly that job in the simulator
with a delivery tap on the network and rendering the message sequence —
which doubles as a protocol-conformance check for the workload model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.placement import PlacementSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.common import base_config
from repro.experiments.report import Claim
from repro.experiments.runtime import materialize
from repro.experiments.scenario import Scenario


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str        # "model_update" | "gradient_update"
    direction: str   # "ps->wk0", "wk1->ps", ...
    iteration: int


@dataclass
class Fig1Result:
    events: List[TraceEvent]
    n_workers: int
    iterations: int

    def events_of(self, iteration: int) -> List[TraceEvent]:
        return [e for e in self.events if e.iteration == iteration]

    def render(self) -> str:
        lines = [
            "Figure 1: PS workflow trace "
            f"(1 PS, {self.n_workers} workers, {self.iterations} iterations)",
            f"{'t (s)':>9s}  {'message':<16s} {'direction':<10s} iter",
        ]
        for e in self.events:
            lines.append(
                f"{e.time:9.4f}  {e.kind:<16s} {e.direction:<10s} {e.iteration}"
            )
        return "\n".join(lines)

    def verify_protocol(self) -> None:
        """Assert the Figure-1 invariants (raises AssertionError if broken).

        Per iteration: every worker receives exactly one model update
        before it sends its gradient, and the PS receives all gradients of
        iteration ``i`` before any worker receives the model of ``i+1``
        (the synchronization barrier).
        """
        for it in range(self.iterations):
            evs = self.events_of(it)
            models = [e for e in evs if e.kind == "model_update"]
            grads = [e for e in evs if e.kind == "gradient_update"]
            assert len(models) == self.n_workers, f"iter {it}: models {len(models)}"
            assert len(grads) == self.n_workers, f"iter {it}: grads {len(grads)}"
            for w in range(self.n_workers):
                m = next(e for e in models if e.direction == f"ps->wk{w}")
                g = next(e for e in grads if e.direction == f"wk{w}->ps")
                assert m.time <= g.time, f"iter {it}, wk{w}: gradient before model"
            if it + 1 < self.iterations:
                barrier = max(e.time for e in grads)
                next_models = [
                    e for e in self.events_of(it + 1) if e.kind == "model_update"
                ]
                assert all(barrier <= e.time for e in next_models), (
                    f"iter {it}: barrier violated"
                )

    def claims(self) -> List[Claim]:
        """The protocol holds, and every worker sends and receives one
        update per iteration."""
        try:
            self.verify_protocol()
            protocol = "holds"
        except AssertionError as exc:
            protocol = f"violated: {exc}"
        expected = 2 * self.n_workers * self.iterations
        return [
            Claim("fig1.protocol", "model before gradient; barrier per iteration",
                  protocol, protocol == "holds"),
            Claim("fig1.messages", f"{expected} updates (2 kinds x workers x iterations)",
                  str(len(self.events)), len(self.events) == expected),
        ]


def scenarios(
    base: Optional[ExperimentConfig] = None,
    n_workers: int = 2,
    iterations: int = 2,
    **overrides,
) -> List[Scenario]:
    """The one job Figure 1 traces."""
    cfg = base_config(base, **overrides)
    # One job, one PS host, fluid network (no switch losses, no window
    # jitter) — Figure 1 is the protocol schematic, not a contention study.
    return [Scenario(
        config=cfg.replace(
            n_jobs=1, n_workers=n_workers, iterations=iterations,
            window_jitter=0.0, switch_buffer_bytes=None, rto=0.2,
        ),
        placement=PlacementSpec((1,)),
        tags=(("figure", "1"),),
    )]


def generate(
    base: Optional[ExperimentConfig] = None,
    n_workers: int = 2,
    iterations: int = 2,
    **overrides,
) -> Fig1Result:
    """Trace a small PS job and return its Figure-1 message sequence."""
    [scenario] = scenarios(base, n_workers, iterations, **overrides)
    deliveries = []
    rt = materialize(scenario)
    rt.cluster.network.add_delivery_tap(
        lambda msg: deliveries.append((msg.delivered_at, msg.kind, msg.flow, msg.meta))
    )
    app = rt.apps[0]
    worker_addr = {
        (ep.host_id, ep.port): i for i, ep in enumerate(app.worker_endpoints)
    }
    rt.run()

    events: List[TraceEvent] = []
    for time, kind, flow, meta in deliveries:
        if kind == "model_update":
            direction = f"ps->wk{worker_addr[(flow.dst_host, flow.dst_port)]}"
        else:
            direction = f"wk{meta['worker']}->ps"
        events.append(TraceEvent(time, kind, direction, meta["iteration"]))
    events.sort(key=lambda e: e.time)
    return Fig1Result(events=events, n_workers=n_workers, iterations=iterations)
