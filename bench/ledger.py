"""Outside-in per-layer ledger for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  While a :class:`Ledger`
is active it swaps, at class and module level, three kinds of stand-ins
into the program and puts every original back on exit:

* ``Simulator.run`` becomes a copy of the kernel's tight dispatch loop
  that times each callback with ``perf_counter_ns`` and charges it to a
  layer: a bound method to its class's module, ``Process._resume`` to
  the module of the generator it resumes, a plain function to its own
  module.  The layer is the module path below ``repro`` (``net.nic``,
  ``dl``, ``net.qdisc.htb``, ...); see :func:`layer_of_module`.
* Public methods of the layers (qdisc enqueue/dequeue/next_ready_time,
  transport sends and losses, the CPU model, the ``Tc`` band methods,
  the result cache, the journal, result encoding) become nested spans.
  A span's time is charged to its own layer and subtracted from the
  self time of whatever called it.
* ``materialize``, ``Runtime.run``, ``Campaign.run`` and
  ``SerialExecutor.map`` become spans of the experiment layers, so that
  everything between the benchmark's call and the event loop is charged
  somewhere.

Aggregates stay in memory; :meth:`Ledger.metrics` turns them into the
per-layer metrics named in ``BENCHMARK.json``.  The traced loop runs the
same callbacks in the same order as the kernel's, so a traced run must
reproduce the untraced run's result content hash; the benchmark checks
that on every traced repeat.
"""

from __future__ import annotations

import gc
import statistics
import time
import types
from contextlib import contextmanager
from heapq import heappop
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.cluster.cpu import ProcessorSharingCPU
from repro.errors import SimulationError
from repro.experiments import campaign as campaign_mod
from repro.experiments import export as export_mod
from repro.experiments import runtime as runtime_mod
from repro.experiments.journal import CampaignJournal
from repro.experiments.scenario import Scenario
from repro.net.qdisc import HTBQdisc, NetemQdisc, PFifo
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.tensorlights.tc import Tc

clock = time.perf_counter_ns

#: layer charged with callbacks from outside the ``repro`` package
OTHER = "other"

#: qdisc layers are named by qdisc type, not by file
QDISC_LAYERS = {"fifo": "pfifo"}

QDISCS = {"pfifo": PFifo, "htb": HTBQdisc, "netem": NetemQdisc}
QDISC_METHODS = ("enqueue", "dequeue", "next_ready_time")

TC_METHODS = (
    "install_tensorlights_htb", "remove", "set_port_band", "del_port",
    "set_range_band", "del_range", "change_band_prio",
)

#: layers whose ``.calls``/``.self_ms``/``.ns_per_call`` are reported
LAYERS = (
    "net.nic", "net.transport", "net.topology", "net.switch", "dl",
    "cluster.cpu", "collectives", "tensorlights", "faults", "sim.watchdog",
    "telemetry",
)

#: per-call latency samples (``<name>_us``: median, p90, n)
CALL_SAMPLES = (
    "cache_put", "journal_append", "cache_get", "result_decode",
    "scenario_key", "result_encode",
)

_PROCESS_FUNCS = tuple(
    Process.__dict__[name] for name in ("_start", "_resume", "_throw")
)


def layer_of_module(module: str) -> str:
    """The ledger layer of a module: its path below ``repro``.

    ``repro.net.nic`` is ``net.nic``, qdiscs are ``net.qdisc.<type>``,
    ``repro.cluster.cpu`` is ``cluster.cpu``, ``repro.experiments.X`` is
    ``experiments.X``, the kernel's own modules are ``sim`` (the watchdog
    is ``sim.watchdog``) and every other subpackage is its own name
    (``dl``, ``collectives``, ``tensorlights``, ``faults``, ...).
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return OTHER
    top, sub = parts[1], parts[2] if len(parts) > 2 else ""
    if top == "net":
        if sub == "qdisc" and len(parts) > 3:
            return "net.qdisc." + QDISC_LAYERS.get(parts[3], parts[3])
        return f"net.{sub}" if sub else "net"
    if top == "sim":
        return "sim.watchdog" if sub == "watchdog" else "sim"
    if top in ("cluster", "experiments") and sub:
        return f"{top}.{sub}"
    return top


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``0.0`` without samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Ledger:
    """Per-layer time and call accounting for traced benchmark runs.

    Use :meth:`active` around each traced unit of work; aggregates
    accumulate across units, and :meth:`metrics` divides by ``units``.
    """

    def __init__(self) -> None:
        #: layer -> [calls, self_ns]
        self.layers: Dict[str, List[int]] = {}
        #: span stack: child time accumulated by the frame on top
        self._stack: List[int] = [0]
        #: callback identity -> layer accumulator
        self._callback_acc: Dict[Any, List[int]] = {}
        self.qdisc_calls = {
            (q, m): [0] for q in QDISCS for m in QDISC_METHODS
        }
        self.dequeue_hits = {q: [0] for q in QDISCS}
        self.losses = [0]
        self.samples: Dict[str, List[int]] = {n: [] for n in CALL_SAMPLES}
        self.cache_hits = 0
        self.cache_lookups = 0
        self.executor_map_ns: List[int] = []
        self.materialize_ns: List[int] = []
        self.runtime_run_ns: List[int] = []
        self.switch_drops = 0
        self.dispatched = 0
        self.elided = 0
        self.cancels = 0
        self.loop_ns = 0
        self.callback_ns = 0
        self.wall_ns = 0
        self.units = 0

    # -- accumulators ------------------------------------------------------

    def _acc(self, layer: str) -> List[int]:
        acc = self.layers.get(layer)
        if acc is None:
            acc = self.layers[layer] = [0, 0]
        return acc

    def _callback_layer(self, fn: Callable) -> List[int]:
        """The accumulator a dispatched callback is charged to (cached)."""
        if type(fn) is types.MethodType:
            func, owner = fn.__func__, fn.__self__
            if func in _PROCESS_FUNCS:
                gen = owner._gen
                key = gen.gi_code if gen is not None else None
            else:
                key = (func, type(owner))
        else:
            key = getattr(fn, "__code__", None) or type(fn)
        acc = self._callback_acc.get(key)
        if acc is None:
            acc = self._callback_acc[key] = self._acc(self._resolve(fn))
        return acc

    @staticmethod
    def _resolve(fn: Callable) -> str:
        if type(fn) is types.MethodType:
            owner = fn.__self__
            if fn.__func__ in _PROCESS_FUNCS:
                gen = owner._gen
                frame = gen.gi_frame if gen is not None else None
                if frame is None:
                    return "sim"
                return layer_of_module(frame.f_globals.get("__name__", ""))
            return layer_of_module(type(owner).__module__)
        module = getattr(fn, "__module__", None) or type(fn).__module__
        return layer_of_module(module)

    # -- span factories ----------------------------------------------------

    def _span(
        self,
        layer: str,
        orig: Callable,
        calls: Optional[List[int]] = None,
        hits: Optional[List[int]] = None,
        samples: Optional[List[int]] = None,
    ) -> Callable:
        """Wrap ``orig`` as a nested span charged to ``layer``.

        ``calls`` counts invocations of this one method, ``hits`` counts
        calls that returned something other than ``None`` and
        ``samples`` keeps every call's inclusive duration.
        """
        acc, stack = self._acc(layer), self._stack

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[1] += dt - stack.pop()
                acc[0] += 1
                stack[-1] += dt
                if calls is not None:
                    calls[0] += 1
                if samples is not None:
                    samples.append(dt)
            if hits is not None and out is not None:
                hits[0] += 1
            return out

        return span

    def _map_span(self, orig: Callable) -> Callable:
        """``Executor.map`` is a generator: time each step it takes.

        Only maps that executed something are recorded in
        :attr:`executor_map_ns`; a fully cached campaign maps nothing.
        """
        acc, stack, totals = (
            self._acc("experiments.campaign"), self._stack, self.executor_map_ns
        )

        def map_span(self_, scenarios, *args, **kwargs):
            steps = orig(self_, scenarios, *args, **kwargs)
            total = 0
            try:
                while True:
                    stack.append(0)
                    t0 = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        acc[1] += dt - stack.pop()
                        acc[0] += 1
                        stack[-1] += dt
                        total += dt
                    yield item
            finally:
                if scenarios:
                    totals.append(total)

        return map_span

    def _cache_get_span(self, orig: Callable) -> Callable:
        span = self._span("experiments.campaign", orig,
                          samples=self.samples["cache_get"])

        def cache_get(cache, scenario):
            out = span(cache, scenario)
            self.cache_lookups += 1
            self.cache_hits += out is not None
            return out

        return cache_get

    def _runtime_run_span(self, orig: Callable) -> Callable:
        span = self._span("experiments.runtime", orig,
                          samples=self.runtime_run_ns)

        def run(runtime):
            result = span(runtime)
            self.switch_drops += runtime.cluster.network.switch.total_drops
            return result

        return run

    def _traced_run(self, original: Callable) -> Callable:
        """A copy of ``Simulator.run``'s unbounded loop that times callbacks.

        Mirrors the kernel's ``until is None and max_steps is None`` path
        statement for statement; bounded runs go to the original.
        """
        ledger = self
        stack = self._stack
        callback_layer = self._callback_layer
        loop_acc = self._acc("sim.loop")

        def run(sim, until=None, max_steps=None):
            if until is not None or max_steps is not None:
                return original(sim, until, max_steps)
            if sim._running:
                raise SimulationError("Simulator.run() is not reentrant")
            sim._running = True
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            events = sim.events
            heap = events._heap
            cancels_before = events.cancels
            elided_before = sim.events_elided
            dispatched = 0
            callback_ns = 0
            start = clock()
            try:
                while heap:
                    entry = heappop(heap)
                    ev = entry[3]
                    if ev is None:
                        events._live -= 1
                        sim.now = entry[0]
                        sim._steps += 1
                        fn, args = entry[4], entry[5]
                    elif ev.cancelled:
                        events._tombstones -= 1
                        continue
                    else:
                        ev.pending = False
                        events._live -= 1
                        sim.now = entry[0]
                        sim._steps += 1
                        fn, args = ev.fn, ev.args
                    acc = callback_layer(fn)
                    stack.append(0)
                    t0 = clock()
                    fn(*args)
                    dt = clock() - t0
                    acc[1] += dt - stack.pop()
                    acc[0] += 1
                    callback_ns += dt
                    dispatched += 1
                return sim.now
            finally:
                loop_ns = clock() - start
                stack[-1] += loop_ns
                loop_acc[0] += 1
                loop_acc[1] += loop_ns - callback_ns
                ledger.loop_ns += loop_ns
                ledger.callback_ns += callback_ns
                ledger.dispatched += dispatched
                ledger.cancels += events.cancels - cancels_before
                ledger.elided += sim.events_elided - elided_before
                sim._running = False
                if gc_was_enabled:
                    gc.enable()

        return run

    # -- installation ------------------------------------------------------

    def _patches(self) -> Iterator[tuple]:
        """``(owner, attribute, stand-in factory)`` for every stand-in."""
        for qname, cls in QDISCS.items():
            layer = f"net.qdisc.{qname}"
            for method in QDISC_METHODS:
                hits = self.dequeue_hits[qname] if method == "dequeue" else None
                calls = self.qdisc_calls[(qname, method)]
                yield cls, method, (
                    lambda orig, layer=layer, calls=calls, hits=hits:
                    self._span(layer, orig, calls=calls, hits=hits)
                )
        yield Transport, "send_message", (
            lambda orig: self._span("net.transport", orig))
        yield Transport, "on_segment_lost", (
            lambda orig: self._span("net.transport", orig, calls=self.losses))
        yield ProcessorSharingCPU, "run", (
            lambda orig: self._span("cluster.cpu", orig))
        for method in TC_METHODS:
            yield Tc, method, lambda orig: self._span("tensorlights", orig)
        samples = self.samples
        yield campaign_mod.ResultCache, "get", self._cache_get_span
        yield campaign_mod.ResultCache, "put", (
            lambda orig: self._span("experiments.campaign", orig,
                                    samples=samples["cache_put"]))
        yield CampaignJournal, "append", (
            lambda orig: self._span("experiments.journal", orig,
                                    samples=samples["journal_append"]))
        yield Scenario, "key", (
            lambda orig: self._span("experiments.scenario", orig,
                                    samples=samples["scenario_key"]))
        yield campaign_mod, "result_from_full_dict", (
            lambda orig: self._span("experiments.export", orig,
                                    samples=samples["result_decode"]))
        for module in (campaign_mod, export_mod):
            yield module, "result_to_full_dict", (
                lambda orig: self._span("experiments.export", orig,
                                        samples=samples["result_encode"]))
        yield campaign_mod.Campaign, "run", (
            lambda orig: self._span("experiments.campaign", orig))
        yield campaign_mod.SerialExecutor, "map", self._map_span
        yield runtime_mod, "materialize", (
            lambda orig: self._span("experiments.runtime", orig,
                                    samples=self.materialize_ns))
        yield runtime_mod.Runtime, "run", self._runtime_run_span
        yield Simulator, "run", self._traced_run

    @contextmanager
    def active(self) -> Iterator["Ledger"]:
        """Install every stand-in for one traced unit of work.

        Everything the program builds inside the block binds the
        stand-ins; on exit the originals are restored and the block's
        wall time is added to :attr:`wall_ns`.
        """
        saved = []
        for owner, name, factory in self._patches():
            own = name in vars(owner)
            orig = getattr(owner, name)
            saved.append((owner, name, own, vars(owner).get(name)))
            setattr(owner, name, factory(orig))
        self._stack[:] = [0]
        t0 = clock()
        try:
            yield self
        finally:
            self.wall_ns += clock() - t0
            self.units += 1
            for owner, name, own, orig in reversed(saved):
                if own:
                    setattr(owner, name, orig)
                else:
                    delattr(owner, name)

    # -- report ------------------------------------------------------------

    def self_ns_total(self) -> int:
        """Self time charged to every layer, loop overhead included."""
        return sum(acc[1] for acc in self.layers.values())

    def metrics(self, untraced_wall_s: float, traced_wall_s: float) -> Dict[str, float]:
        """Per-layer metrics, per traced unit of work.

        ``untraced_wall_s``/``traced_wall_s`` are the benchmark's medians
        of the same unit run without and with the ledger.
        """
        units = max(self.units, 1)
        out: Dict[str, float] = {}

        def layer(name: str) -> List[int]:
            return self.layers.get(name, [0, 0])

        for name in LAYERS:
            calls, self_ns = layer(name)
            out[f"{name}.calls"] = calls / units
            out[f"{name}.self_ms"] = self_ns / units / 1e6
            out[f"{name}.ns_per_call"] = self_ns / calls if calls else 0.0
        out["sim.self_ms"] = layer("sim")[1] / units / 1e6
        for qname in QDISCS:
            calls, self_ns = layer(f"net.qdisc.{qname}")
            prefix = f"net.qdisc.{qname}"
            for method in QDISC_METHODS:
                out[f"{prefix}.{method}.calls"] = (
                    self.qdisc_calls[(qname, method)][0] / units)
            dequeues = self.qdisc_calls[(qname, "dequeue")][0]
            out[f"{prefix}.self_ms"] = self_ns / units / 1e6
            out[f"{prefix}.ns_per_call"] = self_ns / calls if calls else 0.0
            out[f"{prefix}.dequeue_yield"] = (
                self.dequeue_hits[qname][0] / dequeues if dequeues else 0.0)
        out["net.switch.drops"] = self.switch_drops / units
        out["net.transport.losses"] = self.losses[0] / units
        out["sim.dispatched"] = self.dispatched / units
        out["sim.elided"] = self.elided / units
        out["sim.cancels"] = self.cancels / units
        out["sim.loop_ns_per_event"] = (
            (self.loop_ns - self.callback_ns) / self.dispatched
            if self.dispatched else 0.0)
        runs = len(self.runtime_run_ns)
        out["experiments.runtime.materialize_ms"] = (
            statistics.fmean(self.materialize_ns) / 1e6
            if self.materialize_ns else 0.0)
        out["experiments.runtime.collect_ms"] = (
            (sum(self.runtime_run_ns) - self.loop_ns) / runs / 1e6
            if runs else 0.0)
        for name in CALL_SAMPLES:
            values = self.samples[name]
            base = f"experiments.campaign.{name}_us"
            out[base] = statistics.median(values) / 1e3 if values else 0.0
            out[f"{base}.p90"] = _percentile(values, 0.9) / 1e3
            out[f"{base}.n"] = len(values) / units
        out["experiments.campaign.executor_map_s"] = (
            statistics.median(self.executor_map_ns) / 1e9
            if self.executor_map_ns else 0.0)
        out["experiments.campaign.cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0)
        out["trace.overhead"] = (
            traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0)
        out["trace.unattributed_share"] = (
            max(self.wall_ns - self.self_ns_total(), 0)
            + layer(OTHER)[1]) / self.wall_ns if self.wall_ns else 0.0
        return out
