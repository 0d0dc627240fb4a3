"""The Campaign layer: execute scenario lists with executors and a cache.

A :class:`Campaign` owns the *how* of running many scenarios — which
executor drives them (in-process serial by default, a
``ProcessPoolExecutor`` fan-out with :class:`ParallelExecutor`) and
whether results come from / go to a content-addressed on-disk
:class:`ResultCache`.  The figure generators, studies, ablations, CLI and
``tensorlights reproduce`` all build scenario lists and submit them here, so one
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
    result_content_hash,
    result_from_full_dict,
    result_to_full_dict,
    seal_entry,
    unseal_entry,
)
from repro.experiments.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    default_journal_dir,
)
from repro.experiments.runtime import ExperimentResult, execute_scenario
from repro.experiments.scenario import Scenario
from repro.fileio import atomic_write_bytes
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


#: Backoff slept before quarantine attempt ``n + 1`` of a scenario whose
#: worker died: ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR **
#: (n - 1))``.  No jitter: two campaigns retrying the same scenario
#: behave identically.
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 30.0


def _backoff(attempt: int) -> float:
    """Seconds slept after failed attempt ``attempt`` (1-based)."""
    return min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))


class ResultCache:
    """Content-addressed on-disk cache of experiment results.

    One file per scenario, named by :meth:`Scenario.key` (a SHA-256 over
    everything that affects execution), so re-running a figure only
    simulates what changed.  Invalidate by deleting files or bumping
    ``SCENARIO_SCHEMA`` (which changes every key).

    An entry holds one result in full-result schema 5
    (:func:`result_to_full_dict`, framed by :func:`seal_entry`: a JSON
    header line, an int64 and a float64 block, and the CRC-32 of every
    byte before it; no config, since the key names it).  :meth:`get`
    checks that checksum before it parses anything, so a changed byte
    anywhere is caught rather than served.

    Writes are atomic and race-free: each writer stages into its own
    uniquely-named temp file, then ``os.replace``s it over the entry.
    Concurrent writers of the same key (parallel campaigns sharing a
    cache directory) last-write-win; readers only ever see a complete
    entry — determinism makes every complete entry equally correct.
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else default_cache_dir()
        #: entries :meth:`get` found unreadable and quarantined
        self.corrupt = 0

    @classmethod
    def default(cls) -> "ResultCache":
        """A cache at :func:`default_cache_dir`."""
        return cls()

    def _entry(self, scenario: Scenario) -> Path:
        return self.path / f"{scenario.key()}.json"

    def get(self, scenario: Scenario) -> Optional[ExperimentResult]:
        """The cached result for this scenario, or ``None`` on a miss.

        The result carries the stored ``content_hash``, and its config
        is ``scenario.config`` (the entry is named by the scenario's
        content key, so that is the config it was stored with).

        Unreadable or stale-schema entries count as misses, never as
        errors.  A stale-schema entry (one another build wrote with a
        different ``full_schema_version``, such as the JSON documents of
        schemas 2-4) stays in place for the re-run's :meth:`put` to
        overwrite.  A file that *exists* but fails its checksum or will
        not parse — truncated by a crash mid-write outside our atomic
        protocol, bit-rotted, or a packed block that does not match its
        counts — is additionally quarantined (renamed with a
        ``.corrupt`` suffix) so it stops shadowing the slot and the
        scenario re-runs cleanly.
        """
        entry = self._entry(scenario)
        try:
            raw = entry.read_bytes()
        except OSError:
            return None
        try:
            data = unseal_entry(raw)
            if data is None:
                return None
            return result_from_full_dict(data, scenario.config)
        except (ValueError, KeyError, TypeError, ConfigError):
            self._quarantine(entry)
            return None

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt entry aside (``<entry>.corrupt``, last one wins).

        The suffix takes the file out of the ``*.json`` namespace, so
        ``__len__`` ignores it and :meth:`put` rebuilds the slot.
        """
        try:
            os.replace(entry, entry.with_name(entry.name + ".corrupt"))
        except OSError:
            return  # a concurrent reader already moved (or removed) it
        self.corrupt += 1

    def put(self, scenario: Scenario, result: ExperimentResult) -> Path:
        """Store one result (atomic write); returns the entry path.

        Sets ``result.content_hash`` to the hash stored with it.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        entry = self._entry(scenario)
        data = result_to_full_dict(result)
        atomic_write_bytes(entry, seal_entry(data))
        result.content_hash = data["content_hash"]
        return entry

    def __len__(self) -> int:
        return len(list(self.path.glob("*.json"))) if self.path.is_dir() else 0


@dataclass
class ExecutionOutcome:
    """What happened to one scenario execution attempt (or its retries).

    ``status`` is ``"ok"`` (``result`` is set), ``"timeout"`` (the
    scenario exceeded its wall-clock budget), ``"error"`` (the simulation
    raised; ``error`` carries the exception when the attempt ran
    in-process) or ``"crashed"`` (the worker process died).  A campaign
    settles a cache hit as ``"cached"`` (``result`` set, zero attempts);
    no executor yields that status.
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


@dataclass(frozen=True)
class RunRequest:
    """How an executor runs each scenario of one campaign run.

    Plain data, so it crosses the process-pool pickle boundary.
    ``timeout`` is the wall-clock budget per scenario (``None``:
    unbounded); ``metrics`` and ``watchdog`` are the observation switches
    of :func:`execute_scenario`; ``max_attempts`` bounds how often the
    pool runs a scenario whose worker process died.
    """

    timeout: Optional[float] = None
    metrics: bool = False
    watchdog: Optional[str] = None
    max_attempts: int = 1

    def execute(self, scenario: Scenario) -> ExperimentResult:
        return execute_scenario(
            scenario, metrics=self.metrics, watchdog=self.watchdog
        )


def _land_pending_raise() -> None:
    """Does nothing: entering it is a bytecode boundary, where a pending
    injected raise lands (see :func:`_run_with_wall_timeout`)."""


def _run_with_wall_timeout(
    scenario: Scenario, request: RunRequest
) -> ExperimentResult:
    """Run one scenario under the request's wall-clock budget.

    A daemon ``threading.Timer`` injects :class:`_ScenarioTimeout` into
    the running thread via ``PyThreadState_SetAsyncExc``, so the guard
    holds on any thread (pool worker, serial caller, or a thread of its
    own) and on every platform CPython supports.  Delivery lands at the
    next bytecode boundary, which the pure-Python simulator crosses
    constantly.  A lock plus done-flag closes the finish-line race, and
    a fired-but-undelivered injection is made to land (and is dropped)
    on the way out.  An injection that surfaces wrapped in the kernel's
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

    timer = threading.Timer(request.timeout, on_timer)
    timer.daemon = True
    timer.start()
    try:
        result = request.execute(scenario)
    except Exception as exc:
        if _find_timeout(exc) is None:
            raise
        raise _ScenarioTimeout(
            f"exceeded {request.timeout:g}s wall-clock budget"
        ) from None
    finally:
        with lock:
            already_done = state["done"]
            state["done"] = True
        if state["fired"] and not already_done:
            # A raise that fired at the finish line may still be pending:
            # a Python call lands it here.  Clearing it with
            # SetAsyncExc(NULL) instead leaves CPython's async-exception
            # eval-breaker bit set for the rest of the process, and every
            # later function entry under a trace or profile function
            # (hypothesis explaining a failure, a profiler) spins forever.
            try:
                _land_pending_raise()
            except _ScenarioTimeout:
                pass
        timer.cancel()
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
    scenario: Scenario, request: RunRequest
) -> ExecutionOutcome:
    """Run one scenario, converting failures into an :class:`ExecutionOutcome`.

    The exception of an ``"error"`` outcome is kept only in the caller's
    process: a pool worker's outcome is pickled back, and an exception
    need not pickle.
    """
    _maybe_chaos_kill(scenario)
    pid = os.getpid()
    try:
        if request.timeout is not None:
            result = _run_with_wall_timeout(scenario, request)
        else:
            result = request.execute(scenario)
    except _ScenarioTimeout as exc:
        return ExecutionOutcome(status="timeout", detail=str(exc), pid=pid)
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return ExecutionOutcome(
            status="error",
            detail=f"{type(exc).__name__}: {exc}",
            error=None if _POOL_WORKER else exc,
            pid=pid,
        )
    return ExecutionOutcome(status="ok", result=result, pid=pid)


class SerialExecutor:
    """Run scenarios one after another in this process (the default).

    Deterministic and dependency-free — byte-identical to calling
    ``execute_scenario`` on each scenario in turn.
    """

    def map(
        self, pending: Sequence[Tuple[int, Scenario]], request: RunRequest
    ) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Yield ``(index, outcome)`` in submission order.

        Nothing is retried: an in-process attempt is deterministic, so a
        retry would only repeat the failure.
        """
        for index, scenario in pending:
            yield index, _guarded_execute(scenario, request)


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
        self, pending: Sequence[Tuple[int, Scenario]], request: RunRequest
    ) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Yield ``(index, outcome)`` as workers complete."""
        if not pending:
            return
        survivors: List[Tuple[int, Scenario]] = []
        with ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_mark_pool_worker
        ) as pool:
            futures = {
                pool.submit(_guarded_execute, scenario, request): (index, scenario)
                for index, scenario in pending
            }
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    index, scenario = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # Innocent and guilty futures are indistinguishable
                        # here; requeue them all for quarantine.
                        survivors.append((index, scenario))
                        survivors.extend(futures.values())
                        futures.clear()
                        break
                    yield index, outcome
        for index, scenario in survivors:
            yield index, self._quarantined(scenario, request)

    @staticmethod
    def _quarantined(
        scenario: Scenario, request: RunRequest
    ) -> ExecutionOutcome:
        """Run one scenario alone in its own pool, retrying worker deaths.

        Attempt ``n + 1`` first sleeps ``_backoff(n)`` wall-clock seconds
        — a transiently overloaded machine (the usual reason a worker was
        OOM-killed) gets room to recover instead of being hammered
        back-to-back.
        """
        max_attempts = request.max_attempts
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                time.sleep(_backoff(attempt - 1))
            with ProcessPoolExecutor(
                max_workers=1, initializer=_mark_pool_worker
            ) as pool:
                future = pool.submit(_guarded_execute, scenario, request)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    continue  # this scenario's own worker died: retry it
            outcome.attempts = attempt
            return outcome
        return ExecutionOutcome(
            status="crashed",
            detail=f"worker process died on all {max_attempts} attempts",
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
            run before being written off (parallel executor only), with
            the :data:`BACKOFF_BASE_S` schedule slept between attempts.
        on_failure: ``"raise"`` (default — first failure aborts the
            campaign, matching historical behaviour) or ``"report"`` —
            healthy scenarios keep their results, casualties end up in
            :attr:`CampaignResult.failures`.
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
        observe_metrics: run every scenario with a per-run metrics
            registry (results gain ``metrics_snapshot``).
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
        self.max_attempts = max_attempts
        self.on_failure = on_failure
        self.journal = journal or resume is not None or run_id is not None
        self.resume = resume
        self.run_id = run_id
        if journal_dir is None and cache is not None:
            journal_dir = default_journal_dir(cache.path)
        self.journal_dir = journal_dir
        self.observe_metrics = observe_metrics
        self.watchdog = None if watchdog == "off" else watchdog
        self.metrics = MetricsRegistry()

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

    def _count(self, outcomes: Iterable[ExecutionOutcome], corrupt: int) -> None:
        """Add one run's settled outcomes to the campaign counters.

        ``outcomes`` holds one outcome per distinct key (a repeated key
        counts once); ``corrupt`` is how many cache entries the run
        quarantined.
        """
        metrics = self.metrics
        for name in self._METRIC_NAMES:
            metrics.counter(name)
        for outcome in outcomes:
            metrics.counter(
                "campaign_scenarios_total", status=outcome.status
            ).inc()
            if outcome.status == "cached":
                metrics.counter("campaign_cache_hits_total").inc()
            if outcome.attempts > 1:
                metrics.counter("campaign_retries_total").inc(
                    outcome.attempts - 1
                )
                metrics.counter("campaign_backoff_seconds_total").inc(
                    sum(_backoff(a) for a in range(1, outcome.attempts))
                )
            if outcome.status == "ok" and outcome.result.watchdog_violations:
                metrics.counter("campaign_watchdog_violations_total").inc(
                    len(outcome.result.watchdog_violations)
                )
        if corrupt:
            metrics.counter("campaign_cache_corrupt_total").inc(corrupt)

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
        failures: List[CampaignFailure] = []
        # the outcome of each key's first position, in settle order
        outcomes: Dict[int, ExecutionOutcome] = {}
        completed = 0

        # Chaos hook: fell the whole campaign process after the Nth
        # journaled outcome (journal-gated: an unjournaled campaign has
        # nothing to resume, so killing it would only lose work).
        kill_after = _chaos_campaign_kill_after() if journal else None

        def emit(status: str, index: int) -> None:
            if self.progress is not None:
                self.progress(CampaignEvent(
                    status=status, index=index, completed=completed,
                    total=total, scenario=scenario_list[index],
                ))

        def settle(index: int, outcome: ExecutionOutcome, repeat: bool = False) -> None:
            """Settle one position: fill its result slot or failure, write
            its journal outcome and emit its progress event.  A ``repeat``
            position shares the outcome of its key's first position, which
            was already cached, journaled and counted."""
            nonlocal completed
            key = keys[index]
            status = outcome.status
            if not repeat:
                outcomes[index] = outcome
                if status == "ok" and self.cache is not None:
                    # Cache first, then journal: a journaled "ok" must
                    # always be servable from the cache on resume.
                    self.cache.put(scenario_list[index], outcome.result)
                if journal is not None:
                    record: Dict[str, Any] = {
                        "kind": "outcome", "index": index, "key": key,
                        "status": status, "cached": status == "cached",
                        "attempts": prior_attempts.get(key, 0) + outcome.attempts,
                    }
                    if outcome.result is not None:
                        # The hash the cache stored (read back on a hit,
                        # taken at put for a run); hashed here only when
                        # the campaign has no cache.
                        record["content_hash"] = (
                            outcome.result.content_hash
                            or result_content_hash(outcome.result)
                        )
                    else:
                        record["detail"] = outcome.detail
                    if status != "cached":
                        record["worker"] = outcome.pid
                    journal.append(record)
                    # every outcome so far has been journaled
                    if kill_after is not None and len(outcomes) >= kill_after:
                        os._exit(29)
            if outcome.result is None:
                if self.on_failure == "raise":
                    if outcome.error is not None:
                        raise outcome.error
                    raise CampaignError(
                        f"scenario #{index} [{scenario_list[index].label}] "
                        f"{status}"
                        + (f": {outcome.detail}" if outcome.detail else "")
                    )
                failures.append(CampaignFailure(
                    index=index, scenario=scenario_list[index], kind=status,
                    detail=outcome.detail, attempts=outcome.attempts,
                ))
                event = "failed"
            else:
                results[index] = outcome.result
                event = "cached" if status == "cached" and not repeat else "done"
            completed += 1
            emit(event, index)

        corrupt_before = self.cache.corrupt if self.cache is not None else 0
        corrupt = 0
        try:
            # Write-ahead: the generation's full plan, before anything
            # runs, as one durable batch.
            if journal is not None:
                plan = [
                    {
                        "kind": "scenario", "index": index, "key": keys[index],
                        "label": scenario.label,
                        "scenario": scenario.to_dict(),
                    }
                    for index, scenario in enumerate(scenario_list)
                ]
                if self.resume is None:
                    plan.insert(0, {
                        "kind": "campaign_start", "schema": JOURNAL_SCHEMA,
                        "run_id": journal.run_id, "total": total,
                        "ts": time.time(),
                    })
                journal.append(*plan)

            # Serve cache hits; set repeated keys aside.
            to_run: List[Tuple[int, Scenario]] = []
            first_of_key: Dict[str, int] = {}
            repeats: Dict[int, List[int]] = {}
            for index, scenario in enumerate(scenario_list):
                key = keys[index]
                if key in first_of_key:
                    repeats.setdefault(first_of_key[key], []).append(index)
                    continue
                first_of_key[key] = index
                cached = (self.cache.get(scenario)
                          if self.cache is not None else None)
                if cached is not None:
                    settle(index, ExecutionOutcome(status="cached", result=cached, attempts=0))
                    continue
                to_run.append((index, scenario))
                emit("running", index)
            cache_hits = completed

            # Execute the misses through the pluggable executor.
            if journal is not None and to_run:
                journal.append(*(
                    {
                        "kind": "submit", "index": index, "key": keys[index],
                        "attempt": prior_attempts.get(keys[index], 0) + 1,
                    }
                    for index, _ in to_run
                ))
            request = RunRequest(
                timeout=self.scenario_timeout, metrics=self.observe_metrics,
                watchdog=self.watchdog, max_attempts=self.max_attempts,
            )
            for index, outcome in self.executor.map(to_run, request):
                settle(index, outcome)

            # Repeated keys share their first position's fate.
            for index, repeat_indices in repeats.items():
                for repeat in repeat_indices:
                    settle(repeat, outcomes[index], repeat=True)
            if self.cache is not None:
                corrupt = self.cache.corrupt - corrupt_before
        finally:
            self._count(outcomes.values(), corrupt)

        if journal is not None:
            journal.append({
                "kind": "campaign_end", "executed": len(to_run),
                "cached": cache_hits, "failed": len(failures),
                "ts": time.time(),
            })

        assert results.count(None) == len(failures)  # every other slot is filled
        return CampaignResult(
            scenarios=scenario_list,
            results=results,
            cache_hits=cache_hits,
            executed=len(to_run),
            wall_seconds=time.perf_counter() - wall_start,
            failures=failures,
            run_id=journal.run_id if journal is not None else None,
            campaign_metrics=self.metrics.snapshot(),
        )

    def run_one(self, scenario: Scenario) -> ExperimentResult:
        """Convenience: run a single scenario (cache-aware)."""
        return self.run([scenario]).results[0]
