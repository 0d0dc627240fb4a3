"""The Campaign layer: execute scenario lists with executors and a cache.

A :class:`Campaign` owns the *how* of running many scenarios — which
executor drives them (in-process serial by default, a
``ProcessPoolExecutor`` fan-out with :class:`ParallelExecutor`) and
whether results come from / go to a content-addressed on-disk
:class:`ResultCache`.  The figure generators, studies, ablations, CLI and
benchmarks all build scenario lists and submit them here, so one
``Campaign(executor=ParallelExecutor(8), cache=ResultCache(path))``
parallelizes and incrementalizes the whole paper reproduction.

Default behaviour (no executor, no cache) is deterministic and
byte-identical to executing each scenario serially without a cache; the
simulation itself is deterministic in the scenario, which is also what
makes parallel execution and caching sound: the same scenario key always
denotes the same result.

Example::

    scenarios = [Scenario(cfg.replace(placement_index=i)) for i in (1, 4, 8)]
    campaign = Campaign(executor=ParallelExecutor(max_workers=4),
                        cache=ResultCache.default())
    results = campaign.run(scenarios).results   # aligned with scenarios
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CampaignError, ConfigError
from repro.experiments.export import (
    FULL_SCHEMA_VERSION,
    result_content_hash,
    result_from_full_dict,
    result_to_full_dict,
)
from repro.experiments.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    default_journal_dir,
)
from repro.experiments.runtime import ExperimentResult, execute_scenario
from repro.experiments.scenario import Scenario
from repro.fileio import atomic_write_text
from repro.telemetry.metrics import MetricsRegistry

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Chaos self-test hook (see ``_guarded_execute``): when set and a pool
#: worker picks up a scenario tagged ``chaos=kill``, the worker process
#: hard-exits — the campaign's crash handling can then be exercised by the
#: test suite exactly as a real segfault/OOM kill would exercise it.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"


def default_cache_dir() -> Path:
    """Where the result cache lives unless told otherwise.

    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/tensorlights-repro``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tensorlights-repro"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for scenarios whose *worker* died.

    Attempt ``n`` (1-based) failing is followed by a sleep of
    ``min(max_delay, base_delay * factor ** (n - 1))`` before attempt
    ``n + 1``, up to ``max_attempts`` total attempts.  No jitter: the
    campaign layer is deterministic-by-construction and two campaigns
    retrying the same scenario should behave identically.

    Only crashes (and resumed generations) are retried — an in-process
    exception is deterministic, so re-running it would repeat the
    failure byte for byte.
    """

    max_attempts: int = 2
    base_delay: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ConfigError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.factor < 1:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < self.base_delay:
            raise ConfigError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))

    def total_backoff(self, attempts: int) -> float:
        """Cumulative sleep an execution with ``attempts`` attempts paid."""
        return sum(self.delay(a) for a in range(1, attempts))


class ResultCache:
    """Content-addressed on-disk cache of experiment results.

    One JSON file per scenario, named by :meth:`Scenario.key` (a SHA-256
    over everything that affects execution), so re-running a figure only
    simulates what changed.  Invalidate by deleting files, calling
    :meth:`clear`, or bumping ``SCENARIO_SCHEMA`` (which changes every
    key).

    Writes are atomic and race-free: each writer stages into its own
    uniquely-named temp file, then ``os.replace``s it over the entry.
    Concurrent writers of the same key (parallel campaigns sharing a
    cache directory) last-write-win; readers only ever see a complete
    entry — determinism makes every complete entry equally correct.

    ``max_entries`` bounds the cache size: each :meth:`put` that pushes
    the entry count past the bound evicts the oldest entries (by mtime).
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path) if path is not None else default_cache_dir()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    @classmethod
    def default(cls) -> "ResultCache":
        """A cache at :func:`default_cache_dir`."""
        return cls()

    def _entry(self, scenario: Scenario) -> Path:
        return self.path / f"{scenario.key()}.json"

    def get(self, scenario: Scenario) -> Optional[ExperimentResult]:
        """The cached result for this scenario, or ``None`` on a miss.

        Unreadable or stale-schema entries count as misses, never as
        errors.  A stale-schema entry (one another build wrote with a
        different ``full_schema_version``) stays in place for the re-run's
        :meth:`put` to overwrite.  A file that *exists* but will not
        parse — truncated by a crash mid-write outside our atomic
        protocol, bit-rotted, JSON whose ``"result"`` is not an object, or
        a packed sample block that does not decode — is additionally
        quarantined (renamed with a ``.corrupt`` suffix) so it stops
        shadowing the slot and the scenario re-runs cleanly.
        """
        entry = self._entry(scenario)
        try:
            text = entry.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)["result"]
            if not isinstance(payload, dict):
                raise TypeError("cache entry result is not an object")
            if payload.get("full_schema_version") != FULL_SCHEMA_VERSION:
                self.misses += 1
                return None
            result = result_from_full_dict(payload)
        except (ValueError, KeyError, TypeError, ConfigError):
            self._quarantine(entry)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt entry aside (``<entry>.corrupt``, last one wins).

        The suffix takes the file out of the ``*.json`` namespace, so
        ``purge``/``__len__`` ignore it and :meth:`put` rebuilds the slot.
        """
        try:
            os.replace(entry, entry.with_name(entry.name + ".corrupt"))
        except OSError:
            return  # a concurrent reader already moved (or removed) it
        self.corrupt += 1

    def put(self, scenario: Scenario, result: ExperimentResult) -> Path:
        """Store one result (atomic write); returns the entry path."""
        self.path.mkdir(parents=True, exist_ok=True)
        entry = self._entry(scenario)
        payload = {
            "scenario": scenario.to_dict(),
            "result": result_to_full_dict(result),
        }
        atomic_write_text(entry, json.dumps(payload))
        if self.max_entries is not None:
            self.purge(keep=self.max_entries)
        return entry

    def purge(self, keep: int = 0) -> int:
        """Evict oldest entries (by mtime) beyond ``keep``; returns count."""
        if keep < 0:
            raise ConfigError(f"keep must be >= 0, got {keep}")
        if not self.path.is_dir():
            return 0
        entries = []
        for entry in self.path.glob("*.json"):
            try:
                entries.append((entry.stat().st_mtime, entry))
            except OSError:
                continue  # a concurrent purge got there first
        entries.sort(key=lambda pair: pair[0], reverse=True)
        removed = 0
        for _, entry in entries[keep:]:
            try:
                entry.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        return self.purge(keep=0)

    def __len__(self) -> int:
        return len(list(self.path.glob("*.json"))) if self.path.is_dir() else 0


@dataclass
class ExecutionOutcome:
    """What happened to one scenario execution attempt (or its retries).

    ``status`` is ``"ok"`` (``result`` is set), ``"timeout"`` (the
    scenario exceeded its wall-clock budget), ``"error"`` (the simulation
    raised; ``error`` carries the exception when the attempt ran
    in-process) or ``"crashed"`` (the worker process died).
    """

    status: str
    result: Optional[ExperimentResult] = None
    detail: str = ""
    error: Optional[BaseException] = None
    attempts: int = 1
    #: pid of the process that produced this outcome (worker blame for
    #: the campaign journal; the caller's own pid for serial execution)
    pid: Optional[int] = None


class _ScenarioTimeout(Exception):
    """Internal: injected into a guarded run when its wall budget expires."""


def _find_timeout(exc: Optional[BaseException]) -> Optional[_ScenarioTimeout]:
    """The :class:`_ScenarioTimeout` in ``exc``'s cause chain, if any.

    The timer can fire while the simulator is stepping a process
    generator, in which case the kernel re-raises it wrapped in a
    ``ProcessError`` — still a timeout, not a simulation bug.
    """
    seen: set = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, _ScenarioTimeout):
            return exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return None


def _run_with_wall_timeout(
    scenario: Scenario,
    timeout: float,
    observe: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one scenario under a wall-clock budget.

    A daemon ``threading.Timer`` injects :class:`_ScenarioTimeout` into
    the running thread via ``PyThreadState_SetAsyncExc``, so the guard
    holds on any thread (pool worker, serial caller, or a thread of its
    own) and on every platform CPython supports.  Delivery lands at the
    next bytecode boundary, which the pure-Python simulator crosses
    constantly.  A lock plus done-flag closes the finish-line race, and
    a fired-but-undelivered injection is cleared best-effort on the way
    out.  An injection that surfaces wrapped in the kernel's
    ``ProcessError`` is unwrapped (:func:`_find_timeout`), so a timeout
    always leaves as one bare :class:`_ScenarioTimeout`.
    """
    import ctypes

    set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    tid = ctypes.c_ulong(threading.get_ident())
    lock = threading.Lock()
    state = {"done": False, "fired": False}

    def on_timer() -> None:
        with lock:
            if state["done"]:
                return
            state["fired"] = True
            set_async_exc(tid, ctypes.py_object(_ScenarioTimeout))

    timer = threading.Timer(timeout, on_timer)
    timer.daemon = True
    timer.start()
    try:
        result = execute_scenario(scenario, **(observe or {}))
    except Exception as exc:
        if _find_timeout(exc) is None:
            raise
        raise _ScenarioTimeout(
            f"exceeded {timeout:g}s wall-clock budget"
        ) from None
    finally:
        with lock:
            already_done = state["done"]
            state["done"] = True
        timer.cancel()
        if state["fired"] and not already_done:
            set_async_exc(tid, None)  # clear a pending, undelivered raise
    return result


#: set by the pool initializer so the chaos hook only ever fires in a
#: sacrificial worker process, never in the caller's interpreter
_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _POOL_WORKER
    _POOL_WORKER = True


def _maybe_chaos_kill(scenario: Scenario) -> None:
    """Hard-exit the worker if this scenario asks to be killed (tests).

    ``REPRO_CHAOS_KILL=always`` kills on every attempt; any other value
    is a path — the file is consumed (unlinked) before dying, so the
    scenario's retry succeeds (kill-once semantics).
    """
    mode = os.environ.get(CHAOS_KILL_ENV)
    if not mode or not _POOL_WORKER or scenario.tag("chaos") != "kill":
        return
    if mode == "always":
        os._exit(28)
    try:
        os.unlink(mode)
    except OSError:
        return  # token already consumed: survive this attempt
    os._exit(28)


def _chaos_campaign_kill_after() -> Optional[int]:
    """The ``REPRO_CHAOS_KILL=campaign-after:<N>`` threshold, if armed.

    Unlike the worker-level kill hook above, this one fells the whole
    *campaign process* after its Nth journaled outcome — the chaos
    harness uses it to exercise kill/resume round-trips at a
    deterministic point instead of racing a timer.
    """
    mode = os.environ.get(CHAOS_KILL_ENV, "")
    if not mode.startswith("campaign-after:"):
        return None
    try:
        return int(mode.split(":", 1)[1])
    except ValueError:
        return None


def _guarded_execute(
    scenario: Scenario,
    timeout: Optional[float] = None,
    keep_exception: bool = False,
    observe: Optional[Dict[str, Any]] = None,
) -> ExecutionOutcome:
    """Run one scenario, converting failures into an :class:`ExecutionOutcome`.

    ``observe`` carries pass-through observability switches for
    :func:`execute_scenario` (``{"metrics": True, "watchdog": "warn"}``)
    — plain data so it crosses the process-pool pickle boundary.
    """
    _maybe_chaos_kill(scenario)
    pid = os.getpid()
    try:
        if timeout is not None:
            result = _run_with_wall_timeout(scenario, timeout, observe)
        else:
            result = execute_scenario(scenario, **(observe or {}))
    except _ScenarioTimeout as exc:
        return ExecutionOutcome(status="timeout", detail=str(exc), pid=pid)
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return ExecutionOutcome(
            status="error",
            detail=f"{type(exc).__name__}: {exc}",
            error=exc if keep_exception else None,
            pid=pid,
        )
    return ExecutionOutcome(status="ok", result=result, pid=pid)


class SerialExecutor:
    """Run scenarios one after another in this process (the default).

    Deterministic and dependency-free — byte-identical to calling
    ``execute_scenario`` on each scenario in turn.
    """

    max_workers = 1

    def map(
        self,
        scenarios: Sequence[Tuple[int, Scenario]],
        timeout: Optional[float] = None,
        max_attempts: int = 1,
        observe: Optional[Dict[str, Any]] = None,
        backoff: Optional[RetryPolicy] = None,
    ) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Yield ``(index, outcome)`` in submission order.

        ``max_attempts`` and ``backoff`` are accepted for
        executor-interface parity but meaningless here: in-process
        attempts are deterministic, so a retry would only repeat the
        failure.
        """
        for index, scenario in scenarios:
            yield index, _guarded_execute(
                scenario, timeout=timeout, keep_exception=True,
                observe=observe,
            )


class ParallelExecutor:
    """Fan scenarios out over a ``ProcessPoolExecutor``.

    Results are identical to serial execution: each worker process runs
    the same deterministic simulation and ships a plain-data
    :class:`ExperimentResult` back.  Completion order is load-dependent;
    the campaign realigns results to scenario order.

    A worker process dying (segfault, OOM kill) breaks the whole pool:
    every pending future raises ``BrokenProcessPool``, which says nothing
    about *which* scenario was to blame.  ``map`` then switches to
    quarantine mode — each not-yet-finished scenario runs alone in a
    fresh single-worker pool, so a poisoned scenario is identified
    precisely and only it is charged retry attempts.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or os.cpu_count() or 1

    def map(
        self,
        scenarios: Sequence[Tuple[int, Scenario]],
        timeout: Optional[float] = None,
        max_attempts: int = 2,
        observe: Optional[Dict[str, Any]] = None,
        backoff: Optional[RetryPolicy] = None,
    ) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Yield ``(index, outcome)`` as workers complete.

        ``backoff`` (a :class:`RetryPolicy`) spaces the quarantine
        retries of crashed scenarios; ``None`` retries back-to-back.
        """
        if not scenarios:
            return
        survivors: List[Tuple[int, Scenario]] = []
        broken = False
        with ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_mark_pool_worker
        ) as pool:
            pending = {
                pool.submit(
                    _guarded_execute, scenario, timeout, observe=observe
                ): (index, scenario)
                for index, scenario in scenarios
            }
            while pending and not broken:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, scenario = pending.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # Innocent and guilty futures are indistinguishable
                        # here; requeue them all for quarantine.
                        survivors.append((index, scenario))
                        survivors.extend(pending.values())
                        pending.clear()
                        broken = True
                        break
                    yield index, outcome
        for index, scenario in survivors:
            yield index, self._quarantined(
                scenario, timeout, max_attempts, observe=observe,
                backoff=backoff,
            )

    @staticmethod
    def _quarantined(
        scenario: Scenario,
        timeout: Optional[float],
        max_attempts: int,
        observe: Optional[Dict[str, Any]] = None,
        backoff: Optional[RetryPolicy] = None,
    ) -> ExecutionOutcome:
        """Run one scenario alone in its own pool, retrying worker deaths.

        With a ``backoff`` policy, attempt ``n + 1`` waits
        ``backoff.delay(n)`` wall-clock seconds first — a transiently
        overloaded machine (the usual reason a worker was OOM-killed)
        gets room to recover instead of being hammered back-to-back.
        """
        for attempt in range(1, max_attempts + 1):
            if attempt > 1 and backoff is not None:
                time.sleep(backoff.delay(attempt - 1))
            with ProcessPoolExecutor(
                max_workers=1, initializer=_mark_pool_worker
            ) as pool:
                future = pool.submit(
                    _guarded_execute, scenario, timeout, observe=observe
                )
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    continue  # this scenario's own worker died: retry it
            outcome.attempts = attempt
            return outcome
        return ExecutionOutcome(
            status="crashed",
            detail=(
                f"worker process died on all {max_attempts} attempts"
            ),
            attempts=max_attempts,
        )


@dataclass(frozen=True)
class CampaignEvent:
    """One progress notification (see ``Campaign(progress=...)``).

    ``status`` is ``"cached"`` (served from the result cache),
    ``"running"`` (submitted to the executor), ``"done"`` (result in
    hand) or ``"failed"`` (report-mode campaigns: no result, see
    :attr:`CampaignResult.failures`).  ``completed``/``total`` count
    scenarios with settled outcomes so far.
    """

    status: str
    index: int
    completed: int
    total: int
    scenario: Scenario


@dataclass(frozen=True)
class CampaignFailure:
    """One scenario a report-mode campaign could not produce a result for.

    ``kind`` mirrors :class:`ExecutionOutcome` statuses: ``"timeout"``,
    ``"error"`` or ``"crashed"``.
    """

    index: int
    scenario: Scenario
    kind: str
    detail: str = ""
    attempts: int = 1

    def describe(self) -> str:
        return (
            f"#{self.index} [{self.scenario.label}] {self.kind}"
            + (f": {self.detail}" if self.detail else "")
            + (f" (attempts={self.attempts})" if self.attempts > 1 else "")
        )


@dataclass
class CampaignResult:
    """Everything a finished campaign produced.

    ``results`` is aligned with the submitted scenario list, so callers
    regroup by position or by scenario tags.  Under
    ``Campaign(on_failure="report")`` a failed scenario's slot holds
    ``None`` and a matching :class:`CampaignFailure` appears in
    ``failures``.
    """

    scenarios: List[Scenario]
    results: List[Optional[ExperimentResult]]
    cache_hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    failures: List[CampaignFailure] = field(default_factory=list)
    #: the journal run id, when the campaign was journaled (else ``None``)
    run_id: Optional[str] = None
    #: campaign-level metrics snapshot (retries, backoff, cache traffic,
    #: aggregated watchdog violations) — see ``Campaign.metrics``
    campaign_metrics: Optional[Dict[str, Any]] = None

    def __iter__(self) -> Iterator[Optional[ExperimentResult]]:
        return iter(self.results)

    def pairs(self) -> List[Tuple[Scenario, Optional[ExperimentResult]]]:
        """``(scenario, result)`` pairs in submission order."""
        return list(zip(self.scenarios, self.results))

    def by_tag(self, name: str) -> Dict[str, List[ExperimentResult]]:
        """Group results by the value of one scenario tag (failures skipped)."""
        out: Dict[str, List[ExperimentResult]] = {}
        for scenario, result in self.pairs():
            if result is None:
                continue
            value = scenario.tag(name)
            if value is not None:
                out.setdefault(value, []).append(result)
        return out

    def failure_report(self) -> str:
        """A human-readable summary of what did not finish (or ``""``)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} of {len(self.scenarios)} scenarios failed:"]
        lines.extend(f"  {f.describe()}" for f in self.failures)
        return "\n".join(lines)


ProgressCallback = Callable[[CampaignEvent], None]


class Campaign:
    """Executes scenario lists via a pluggable executor and result cache.

    Args:
        executor: :class:`SerialExecutor` (default) or
            :class:`ParallelExecutor`.
        cache: a :class:`ResultCache`; ``None`` disables caching.
        progress: called with a :class:`CampaignEvent` per state change —
            the CLI renders these as progress lines.
        scenario_timeout: wall-clock budget (seconds) per scenario;
            ``None`` means unbounded.
        max_attempts: how often a scenario whose worker process dies is
            retried before being written off (parallel executor only).
            Shorthand for ``retry=RetryPolicy(max_attempts=...)``.
        on_failure: ``"raise"`` (default — first failure aborts the
            campaign, matching historical behaviour) or ``"report"`` —
            healthy scenarios keep their results, casualties end up in
            :attr:`CampaignResult.failures`.
        retry: a :class:`RetryPolicy` governing attempts *and* the
            exponential backoff between them; overrides ``max_attempts``.
        journal: write a write-ahead :class:`CampaignJournal` for this
            run, making it resumable after a crash or kill.
        resume: run id of a journaled campaign to resume — its journal
            is replayed, completed scenarios are served from the result
            cache, and only pending/failed scenarios execute (with a
            fresh retry budget).  Requires ``cache``.
        run_id: explicit run id for a fresh journaled run (defaults to a
            generated timestamp id).
        journal_dir: where journals live (default: ``journals`` under
            ``cache``'s directory, else under the default cache directory).
        observe_metrics: run every scenario with the per-run metrics
            registry enabled (results gain ``metrics_snapshot``).
        watchdog: runtime invariant watchdog mode for every scenario —
            ``None`` (off), ``"warn"`` or ``"raise"``.

    One campaign object is reusable: the CLI builds a single campaign
    from its flags and passes it through every figure generator.
    Campaign-level counters (retries, backoff seconds, cache traffic,
    aggregated watchdog violations) accumulate in :attr:`metrics`, a
    :class:`~repro.telemetry.metrics.MetricsRegistry`, and each
    :class:`CampaignResult` carries a snapshot.
    """

    def __init__(
        self,
        executor: Optional[SerialExecutor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        scenario_timeout: Optional[float] = None,
        max_attempts: int = 2,
        on_failure: str = "raise",
        retry: Optional[RetryPolicy] = None,
        journal: bool = False,
        resume: Optional[str] = None,
        run_id: Optional[str] = None,
        journal_dir: Optional[os.PathLike] = None,
        observe_metrics: bool = False,
        watchdog: Optional[str] = None,
    ) -> None:
        if scenario_timeout is not None and scenario_timeout <= 0:
            raise ConfigError(
                f"scenario_timeout must be positive, got {scenario_timeout}"
            )
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if on_failure not in ("raise", "report"):
            raise ConfigError(
                f"on_failure must be 'raise' or 'report', got {on_failure!r}"
            )
        if watchdog not in (None, "off", "warn", "raise"):
            raise ConfigError(
                f"watchdog must be None, 'off', 'warn' or 'raise', "
                f"got {watchdog!r}"
            )
        if resume is not None and cache is None:
            raise ConfigError(
                "resume requires a ResultCache: completed scenarios are "
                "served from it instead of re-simulating"
            )
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.progress = progress
        self.scenario_timeout = scenario_timeout
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=max_attempts
        )
        self.max_attempts = self.retry.max_attempts
        self.on_failure = on_failure
        self.journal = journal or resume is not None or run_id is not None
        self.resume = resume
        self.run_id = run_id
        if journal_dir is None and cache is not None:
            journal_dir = default_journal_dir(cache.path)
        self.journal_dir = journal_dir
        self.observe_metrics = observe_metrics
        self.watchdog = None if watchdog == "off" else watchdog
        self.metrics = MetricsRegistry(enabled=True)

    # -- journal plumbing ---------------------------------------------------

    #: campaign-level counters materialized at zero on every run, so an
    #: export after a clean campaign reports explicit zeros instead of
    #: silently omitting the series
    _METRIC_NAMES = (
        "campaign_scenarios_total",
        "campaign_retries_total",
        "campaign_backoff_seconds_total",
        "campaign_cache_hits_total",
        "campaign_cache_corrupt_total",
        "campaign_watchdog_violations_total",
    )

    def _observe(self) -> Optional[Dict[str, Any]]:
        """The observability switches shipped to every execution."""
        observe: Dict[str, Any] = {}
        if self.observe_metrics:
            observe["metrics"] = True
        if self.watchdog is not None:
            observe["watchdog"] = self.watchdog
        return observe or None

    def _open_journal(
        self,
    ) -> Tuple[Optional[CampaignJournal], Optional[List[Scenario]], Dict[str, int]]:
        """Open/create the journal; recover the resumed scenario plan.

        Returns ``(journal, recovered_scenarios, prior_attempts)`` —
        ``recovered_scenarios`` is only set on resume (the journal holds
        the full plan, so the caller need not re-specify it).
        """
        if self.resume is not None:
            journal = CampaignJournal.open(self.resume, self.journal_dir)
            state = journal.state()
            journal.append({
                "kind": "resume", "run_id": journal.run_id,
                "ts": time.time(), "pending": len(state.pending()),
            })
            return journal, state.scenarios, dict(state.attempts)
        if self.journal:
            journal = CampaignJournal.create(self.journal_dir, self.run_id)
            return journal, None, {}
        return None, None, {}

    def run(
        self, scenarios: Optional[Iterable[Scenario]] = None
    ) -> CampaignResult:
        """Run every scenario, serving cache hits without simulating.

        Duplicate scenarios (same content key) are simulated once even
        without a cache; both positions receive the same result object.

        ``scenarios`` may be omitted on resume: the journal stores the
        full scenario plan, so ``Campaign(resume=run_id).run()`` picks
        up exactly where the killed campaign stopped.
        """
        wall_start = time.perf_counter()
        journal, recovered, prior_attempts = self._open_journal()
        if scenarios is None:
            if recovered is None:
                raise ConfigError(
                    "run() needs scenarios unless resuming a journaled "
                    "campaign (Campaign(resume=...))"
                )
            scenario_list = list(recovered)
        else:
            scenario_list = list(scenarios)
        try:
            return self._run(journal, scenario_list, prior_attempts, wall_start)
        finally:
            if journal is not None:
                journal.close()

    def _run(
        self,
        journal: Optional[CampaignJournal],
        scenario_list: List[Scenario],
        prior_attempts: Dict[str, int],
        wall_start: float,
    ) -> CampaignResult:
        total = len(scenario_list)
        keys = [scenario.key() for scenario in scenario_list]
        results: List[Optional[ExperimentResult]] = [None] * total
        completed = 0
        metrics = self.metrics
        for name in self._METRIC_NAMES:
            metrics.counter(name)
        cache_corrupt_before = self.cache.corrupt if self.cache else 0

        # Chaos hook: fell the whole campaign process after the Nth
        # journaled outcome (journal-gated: an unjournaled campaign has
        # nothing to resume, so killing it would only lose work).
        kill_after = _chaos_campaign_kill_after() if journal else None
        outcomes_recorded = 0

        # Callers build outcome records (and their result content hashes)
        # only when a journal is open: a hash re-encodes the whole result,
        # which would dominate an unjournaled warm pass.
        def record_outcome(record: Dict[str, Any]) -> None:
            nonlocal outcomes_recorded
            journal.append(record)
            outcomes_recorded += 1
            if kill_after is not None and outcomes_recorded >= kill_after:
                os._exit(29)

        # Write-ahead: the generation's full plan, before anything runs.
        if journal is not None:
            if self.resume is None:
                journal.append({
                    "kind": "campaign_start", "schema": JOURNAL_SCHEMA,
                    "run_id": journal.run_id, "total": total,
                    "ts": time.time(),
                })
            for index, scenario in enumerate(scenario_list):
                journal.append({
                    "kind": "scenario", "index": index, "key": keys[index],
                    "label": scenario.label,
                    "scenario": scenario.to_dict(),
                })

        def emit(status: str, index: int) -> None:
            if self.progress is not None:
                self.progress(CampaignEvent(
                    status=status, index=index, completed=completed,
                    total=total, scenario=scenario_list[index],
                ))

        # Phase 1: serve cache hits and dedupe identical scenarios.
        to_run: List[Tuple[int, Scenario]] = []
        first_of_key: Dict[str, int] = {}
        duplicates: Dict[int, List[int]] = {}
        for index, scenario in enumerate(scenario_list):
            key = keys[index]
            if key in first_of_key:
                duplicates.setdefault(first_of_key[key], []).append(index)
                continue
            cached = self.cache.get(scenario) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                completed += 1
                first_of_key[key] = index
                metrics.counter("campaign_scenarios_total", status="cached").inc()
                metrics.counter("campaign_cache_hits_total").inc()
                if journal is not None:
                    record_outcome({
                        "kind": "outcome", "index": index, "key": key,
                        "status": "cached", "cached": True,
                        "attempts": prior_attempts.get(key, 0),
                        "content_hash": result_content_hash(cached),
                    })
                emit("cached", index)
                continue
            first_of_key[key] = index
            to_run.append((index, scenario))
            emit("running", index)

        # Phase 2: execute the misses through the pluggable executor.
        cache_hits = completed
        failures: List[CampaignFailure] = []
        failed_indices: set = set()
        if journal is not None:
            for index, scenario in to_run:
                journal.append({
                    "kind": "submit", "index": index, "key": keys[index],
                    "attempt": prior_attempts.get(keys[index], 0) + 1,
                })
        for index, outcome in self.executor.map(
            to_run,
            timeout=self.scenario_timeout,
            max_attempts=self.max_attempts,
            observe=self._observe(),
            backoff=self.retry,
        ):
            key = keys[index]
            attempts = prior_attempts.get(key, 0) + outcome.attempts
            metrics.counter(
                "campaign_scenarios_total", status=outcome.status
            ).inc()
            if outcome.attempts > 1:
                metrics.counter("campaign_retries_total").inc(
                    outcome.attempts - 1
                )
                metrics.counter("campaign_backoff_seconds_total").inc(
                    self.retry.total_backoff(outcome.attempts)
                )
            if outcome.status == "ok":
                results[index] = outcome.result
                completed += 1
                violations = getattr(
                    outcome.result, "watchdog_violations", None
                )
                if violations:
                    metrics.counter(
                        "campaign_watchdog_violations_total"
                    ).inc(len(violations))
                if self.cache is not None:
                    # Cache first, then journal: a journaled "ok" must
                    # always be servable from the cache on resume.
                    self.cache.put(scenario_list[index], outcome.result)
                if journal is not None:
                    record_outcome({
                        "kind": "outcome", "index": index, "key": key,
                        "status": "ok", "cached": False,
                        "attempts": attempts,
                        "content_hash": result_content_hash(outcome.result),
                        "worker": outcome.pid,
                    })
                emit("done", index)
                continue
            if journal is not None:
                record_outcome({
                    "kind": "outcome", "index": index, "key": key,
                    "status": outcome.status, "cached": False,
                    "attempts": attempts, "detail": outcome.detail,
                    "worker": outcome.pid,
                })
            if self.on_failure == "raise":
                if outcome.error is not None:
                    raise outcome.error
                raise CampaignError(
                    f"scenario #{index} [{scenario_list[index].label}] "
                    f"{outcome.status}"
                    + (f": {outcome.detail}" if outcome.detail else "")
                )
            failures.append(CampaignFailure(
                index=index,
                scenario=scenario_list[index],
                kind=outcome.status,
                detail=outcome.detail,
                attempts=outcome.attempts,
            ))
            failed_indices.add(index)
            completed += 1
            emit("failed", index)

        # Phase 3: fan results out to duplicate positions (a failed
        # primary fails its duplicates too — same key, same fate).
        for index, dup_indices in duplicates.items():
            for dup in dup_indices:
                completed += 1
                if index in failed_indices:
                    primary = next(f for f in failures if f.index == index)
                    failures.append(CampaignFailure(
                        index=dup,
                        scenario=scenario_list[dup],
                        kind=primary.kind,
                        detail=primary.detail,
                        attempts=primary.attempts,
                    ))
                    emit("failed", dup)
                    continue
                results[dup] = results[index]
                emit("done", dup)

        if self.cache is not None:
            corrupt = self.cache.corrupt - cache_corrupt_before
            if corrupt:
                metrics.counter("campaign_cache_corrupt_total").inc(corrupt)
        if journal is not None:
            journal.append({
                "kind": "campaign_end", "executed": len(to_run),
                "cached": cache_hits, "failed": len(failures),
                "ts": time.time(),
            })

        assert all(
            r is not None
            for i, r in enumerate(results)
            if not any(f.index == i for f in failures)
        )
        return CampaignResult(
            scenarios=scenario_list,
            results=results,
            cache_hits=cache_hits,
            executed=len(to_run),
            wall_seconds=time.perf_counter() - wall_start,
            failures=failures,
            run_id=journal.run_id if journal is not None else None,
            campaign_metrics=metrics.snapshot(),
        )

    def run_one(self, scenario: Scenario) -> ExperimentResult:
        """Convenience: run a single scenario (cache-aware)."""
        return self.run([scenario]).results[0]
