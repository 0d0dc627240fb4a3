"""Write-ahead campaign journal: durable, crash-consistent run state.

A :class:`CampaignJournal` is an append-only JSONL file under the cache
directory (``<cache>/journals/<run-id>.jsonl``).  The campaign writes a
record *before and after* everything observable — the scenario plan
(full ``Scenario.to_dict()``, so a resume needs no re-specified grid),
each submission, each settled outcome with its attempt count and content
hash.  The start record and the plan are one append, a generation's
submissions another, and each outcome its own; every append is flushed
and ``fsync``'d before the campaign proceeds, so a SIGKILL at any
instant loses at most (part of) the append being written, never
corrupts one already on disk.

:meth:`CampaignJournal.replay` rebuilds the run state from the file and
is deliberately forgiving at the tail: a truncated final line (the
mid-write kill) is ignored, because by the write protocol anything it
described had not happened yet.  Corruption *before* the tail is a real
consistency error and raises :class:`~repro.errors.JournalError`, and
:meth:`CampaignJournal.state` refuses a plan that a kill cut short.

Record kinds (each a single JSON object per line):

``campaign_start``  schema, run id, total scenario count
``scenario``        index, content key, label, full scenario dict
``submit``          index, key, attempt number
``outcome``         index, key, status, attempts, detail, content hash,
                    ``cached`` flag, worker blame (pid when known)
``resume``          a resumed generation opened the journal
``campaign_end``    executed / cached / failed totals
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import JournalError
from repro.experiments.scenario import Scenario, scenario_from_dict

#: Bumped on breaking journal layout changes.
JOURNAL_SCHEMA = 1


def default_journal_dir(cache_dir: Optional[os.PathLike] = None) -> Path:
    """Where journals live: ``<cache dir>/journals``."""
    if cache_dir is None:
        from repro.experiments.campaign import default_cache_dir

        cache_dir = default_cache_dir()
    return Path(cache_dir) / "journals"


def new_run_id() -> str:
    """A sortable, collision-safe campaign run id."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{secrets.token_hex(3)}"


@dataclass
class JournalState:
    """What a replayed journal says about a run."""

    run_id: str
    total: int = 0
    #: scenarios in submission order (rebuilt from their full dicts)
    scenarios: List[Scenario] = field(default_factory=list)
    #: scenario content keys, aligned with ``scenarios``
    keys: List[str] = field(default_factory=list)
    #: key -> last recorded outcome record
    outcomes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> cumulative attempts across all generations
    attempts: Dict[str, int] = field(default_factory=dict)
    #: how many generations (initial run + resumes) touched this journal
    generations: int = 0
    #: records whose JSON was unparseable mid-file (see ``replay(strict=)``)
    skipped_records: int = 0
    #: True when a truncated trailing line was dropped (mid-write kill)
    torn_tail: bool = False

    def completed_keys(self) -> set:
        """Keys whose last outcome produced a result (ok or cached)."""
        return {
            key for key, rec in self.outcomes.items()
            if rec.get("status") in ("ok", "cached")
        }

    def pending(self) -> List[int]:
        """Indices of scenarios without a successful outcome, in order."""
        done = self.completed_keys()
        return [i for i, key in enumerate(self.keys) if key not in done]


class CampaignJournal:
    """Append-only, fsync'd JSONL journal for one campaign run."""

    def __init__(self, path: os.PathLike, run_id: str) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._fh = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Optional[os.PathLike] = None,
        run_id: Optional[str] = None,
    ) -> "CampaignJournal":
        """Start a fresh journal (fails if the run id already exists)."""
        directory = Path(directory) if directory else default_journal_dir()
        run_id = run_id or new_run_id()
        path = directory / f"{run_id}.jsonl"
        if path.exists():
            raise JournalError(f"journal for run {run_id!r} already exists: {path}")
        directory.mkdir(parents=True, exist_ok=True)
        return cls(path, run_id)

    @classmethod
    def open(
        cls, run_id: str, directory: Optional[os.PathLike] = None
    ) -> "CampaignJournal":
        """Open an existing journal for resume (must exist)."""
        directory = Path(directory) if directory else default_journal_dir()
        path = directory / f"{run_id}.jsonl"
        if not path.exists():
            known = ", ".join(r["run_id"] for r in list_runs(directory)) or "none"
            raise JournalError(
                f"no journal for run {run_id!r} in {directory} (known: {known})"
            )
        return cls(path, run_id)

    # -- writing -------------------------------------------------------------

    def append(self, *records: Dict[str, Any]) -> None:
        """Durably append records: one write + flush + fsync for all.

        Each record is one line; ``os.fsync`` makes the batch stable
        before the caller proceeds, so the journal can never claim an
        outcome that the kernel might still lose.  A kill mid-batch
        leaves a prefix of it whose last line may be torn.
        """
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write("".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in records
        ))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay --------------------------------------------------------------

    def replay(self, strict: bool = True) -> JournalState:
        """Rebuild the run state from the file.

        A truncated *final* line is silently dropped (the write protocol
        guarantees it described nothing that completed).  Garbage before
        the tail raises :class:`JournalError` when ``strict`` (the
        default); ``strict=False`` counts it in ``skipped_records`` and
        keeps going.
        """
        state = JournalState(run_id=self.run_id)
        raw = self.path.read_bytes().decode("utf-8", errors="replace")
        lines = raw.split("\n")
        # A journal that was killed mid-append has a non-empty final
        # element (no trailing newline): the torn tail.
        tail = lines.pop()
        complete = [ln for ln in lines if ln]
        if tail.strip():
            try:
                json.loads(tail)
            except ValueError:
                state.torn_tail = True
            else:
                # fully written, just missing its newline (close() without
                # a final append never does this, but be permissive)
                complete.append(tail)
        for lineno, line in enumerate(complete, start=1):
            try:
                record = json.loads(line)
            except ValueError:
                if strict:
                    raise JournalError(
                        f"corrupt journal record at {self.path}:{lineno}"
                    )
                state.skipped_records += 1
                continue
            self._apply(state, record)
        return state

    @staticmethod
    def _apply(state: JournalState, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "campaign_start":
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise JournalError(
                    f"unsupported journal schema {schema!r} "
                    f"(this build reads {JOURNAL_SCHEMA})"
                )
            state.total = int(record.get("total", 0))
            state.generations += 1
        elif kind == "resume":
            state.generations += 1
        elif kind == "scenario":
            index = int(record["index"])
            scenario = scenario_from_dict(record["scenario"])
            while len(state.scenarios) <= index:
                state.scenarios.append(None)  # type: ignore[arg-type]
                state.keys.append("")
            state.scenarios[index] = scenario
            state.keys[index] = record["key"]
        elif kind == "submit":
            key = record["key"]
            state.attempts[key] = state.attempts.get(key, 0) + 1
        elif kind == "outcome":
            state.outcomes[record["key"]] = record
        # campaign_end and unknown kinds carry no replay state (unknown
        # kinds are forward compatibility: newer writers, older readers)

    def state(self) -> JournalState:
        """Strict :meth:`replay` of a journal whose plan is whole.

        Raises :class:`JournalError` when no ``campaign_start`` record
        survived, or when the plan lost scenario records (a hole, or a
        plan shorter than ``campaign_start``'s total: the run was killed
        while writing it).
        """
        state = self.replay(strict=True)
        if not state.generations:
            raise JournalError(f"journal {self.path} has no campaign_start record")
        missing = [i for i, s in enumerate(state.scenarios) if s is None]
        if missing:
            raise JournalError(
                f"journal {self.path} lost scenario records {missing}"
            )
        if len(state.scenarios) < state.total:
            raise JournalError(
                f"journal {self.path} lost scenario records "
                f"{len(state.scenarios)}-{state.total - 1}: its plan was cut short"
            )
        return state


def list_runs(directory: Optional[os.PathLike] = None) -> List[Dict[str, Any]]:
    """Every journal in ``directory``, newest first."""
    directory = Path(directory) if directory else default_journal_dir()
    if not directory.is_dir():
        return []
    out = []
    for path in directory.glob("*.jsonl"):
        try:
            stat = path.stat()
        except OSError:
            continue
        out.append({
            "run_id": path.stem,
            "path": str(path),
            "mtime": stat.st_mtime,
            "bytes": stat.st_size,
        })
    out.sort(key=lambda r: r["mtime"], reverse=True)
    return out
