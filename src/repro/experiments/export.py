"""Result export: JSON and CSV serialization of experiment results.

Downstream users typically feed results into their own plotting pipeline;
these helpers flatten :class:`~repro.experiments.runtime.ExperimentResult`
objects into stable, documented schemas.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import zlib
from array import array
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.dl.metrics import BarrierSeries, JobMetrics
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runtime import ExperimentResult, HostSamples
from repro.experiments.scenario import config_to_dict
from repro.telemetry.sampler import SampleSeries

#: Schema version written into every export, bumped on breaking changes.
SCHEMA_VERSION = 1


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Flatten one run into a JSON-safe dict.

    Includes per-job JCTs and barrier statistics; raw per-barrier series
    are summarized (mean/median/p90) to keep exports small — re-run with
    the same seed to recover full series.
    """
    means = result.barrier_wait_means()
    variances = result.barrier_wait_variances()

    def summary(arr: np.ndarray) -> Dict[str, float]:
        if arr.size == 0:
            return {"n": 0}
        return {
            "n": int(arr.size),
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "p90": float(np.percentile(arr, 90)),
            "max": float(arr.max()),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "avg_jct": result.avg_jct,
        "makespan": result.makespan,
        "sim_events": result.sim_events,
        "wall_seconds": result.wall_seconds,
        "jobs": [
            {
                "job_id": job_id,
                "jct": jct,
                "ps_host": result.ps_host_of_job[job_id],
                "iterations": result.metrics[job_id].iterations_done,
                "global_steps": result.metrics[job_id].global_steps,
            }
            for job_id, jct in sorted(result.jcts.items())
        ],
        "barrier_wait_mean": summary(means),
        "barrier_wait_variance": summary(variances),
        "tc_commands": list(result.tc_commands),
    }


def to_json(results: Iterable[ExperimentResult], indent: int = 2) -> str:
    """Serialize one or more runs as a JSON array."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


#: Columns of the per-job CSV export, in order.
CSV_COLUMNS = (
    "policy",
    "placement_index",
    "n_jobs",
    "n_workers",
    "local_batch_size",
    "seed",
    "job_id",
    "ps_host",
    "jct",
    "iterations",
    "global_steps",
)


def to_csv(results: Iterable[ExperimentResult]) -> str:
    """Serialize runs as per-job CSV rows (one row per job per run)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for result in results:
        cfg = result.config
        for job_id, jct in sorted(result.jcts.items()):
            m = result.metrics[job_id]
            writer.writerow(
                [
                    cfg.policy.value,
                    cfg.placement_index,
                    cfg.n_jobs,
                    cfg.n_workers,
                    cfg.local_batch_size,
                    cfg.seed,
                    job_id,
                    result.ps_host_of_job[job_id],
                    f"{jct:.6f}",
                    m.iterations_done,
                    m.global_steps,
                ]
            )
    return buf.getvalue()


# -- full-fidelity round-trip (result cache) -------------------------------

#: Schema of the lossless result serialization used by the campaign cache.
#: 5: every integer list (local step counts, barrier iteration numbers
#:    and sample counts, series lengths) is in one little-endian int64
#:    block and every float measurement in one little-endian float64
#:    block, both raw ``bytes``; the rest (names, strings, scalars and
#:    the content hash) is a small header.  Entries of any other schema
#:    are cache misses and re-run once.
FULL_SCHEMA_VERSION = 5

#: Version stamped into the payload the content hash is taken over: the
#: schema-2 layout, every sample a decimal JSON float.  Frozen — every
#: pinned hash depends on it, whatever the cache stores on disk.
HASH_SCHEMA_VERSION = 2

#: The three series of a host's utilization samples, in block order.
_SERIES_KINDS = ("cpu", "net_in", "net_out")

_BIG_ENDIAN = sys.byteorder == "big"


def _pack(typecode: str, values: Iterable[Any]) -> bytes:
    """``values`` as little-endian int64s (``"q"``) or float64s (``"d"``)."""
    block = array(typecode, values)
    if _BIG_ENDIAN:
        block.byteswap()
    return block.tobytes()


class _Block:
    """Reads consecutive runs of values off one packed block.

    Bit for bit the inverse of :func:`_pack`; a block whose length is
    not a whole number of values, or counts that overrun or fall short
    of it, raise ``ValueError``.
    """

    def __init__(self, typecode: str, raw: bytes) -> None:
        values = array(typecode)
        values.frombytes(raw)
        if _BIG_ENDIAN:
            values.byteswap()
        self.values = values.tolist()
        self.end = 0

    def take(self, count: int) -> List[Any]:
        if count < 0:
            raise ValueError(f"negative count {count}")
        start = self.end
        self.end += count
        return self.values[start:self.end]

    def close(self) -> None:
        if self.end != len(self.values):
            raise ValueError(
                f"block holds {len(self.values)} values, its counts say {self.end}"
            )


def _series_to_dict(series: SampleSeries) -> Dict[str, List[float]]:
    return {"times": list(series.times), "values": list(series.values)}


def _metrics_to_dict(m: JobMetrics) -> Dict[str, Any]:
    return {
        "job_id": m.job_id,
        "n_workers": m.n_workers,
        "arrival_time": m.arrival_time,
        "start_time": m.start_time,
        "end_time": m.end_time,
        "iterations_done": m.iterations_done,
        "local_steps": dict(m.local_steps),
        # iteration -> list of per-worker waits (JSON keys are strings)
        "barrier_waits": {str(i): list(w) for i, w in m.barriers._waits.items()},
    }


def _metrics_from_dict(data: Mapping[str, Any], ints: _Block,
                       floats: _Block) -> JobMetrics:
    arrival_time, start_time, end_time = floats.take(3)
    workers = data["local_steps"]
    local_steps = dict(zip(workers, ints.take(len(workers))))
    (n_barriers,) = ints.take(1)
    iterations = ints.take(n_barriers)
    barriers = BarrierSeries(data["n_workers"])
    barriers._waits = dict(zip(iterations, map(floats.take, ints.take(n_barriers))))
    return JobMetrics(
        job_id=data["job_id"],
        n_workers=data["n_workers"],
        arrival_time=arrival_time,
        start_time=start_time,
        end_time=end_time,
        iterations_done=data["iterations_done"],
        local_steps=local_steps,
        barriers=barriers,
    )


def _series_from_blocks(ints: _Block, floats: _Block) -> SampleSeries:
    n_times, n_values = ints.take(2)
    if n_times != n_values:
        raise ValueError("sample series has unequal times and values")
    return SampleSeries(times=floats.take(n_times), values=floats.take(n_values))


def _hashed_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Every simulated measurement of a run, in the frozen hash layout.

    This is the one field list of the lossless serialization: the hash
    is taken over it as is, and :func:`result_to_full_dict` moves its
    numbers into packed blocks and adds the fields the hash leaves out.
    """
    return {
        "full_schema_version": HASH_SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "jcts": dict(result.jcts),
        "ps_host_of_job": dict(result.ps_host_of_job),
        "metrics": {j: _metrics_to_dict(m) for j, m in result.metrics.items()},
        "samplers": {
            h: {kind: _series_to_dict(getattr(s, kind)) for kind in _SERIES_KINDS}
            for h, s in result.samplers.items()
        },
        "makespan": result.makespan,
        "sim_events": result.sim_events,
        "tc_commands": list(result.tc_commands),
        "host_ids": list(result.host_ids),
        "fault_events": list(result.fault_events),
    }


def _digest(hashed: Mapping[str, Any]) -> str:
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_to_full_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Losslessly flatten one run for the campaign result cache.

    Unlike :func:`result_to_dict` (a summary for downstream plotting),
    this preserves every measurement — per-barrier wait samples and host
    utilization series included — so :func:`result_from_full_dict` gives
    back an :class:`ExperimentResult` that answers every query the
    original did.  It builds :func:`_hashed_dict` once: the result's
    ``content_hash`` (:func:`result_content_hash`) is taken from it, and
    every number that comes in lists is then moved into one of two
    packed blocks of raw little-endian bytes (bit-exact, and no base64
    or decimal parsing on a cache hit):

    * ``"floats"`` (float64): the JCTs in ``"jcts"`` order (which keeps
      only the job ids), the makespan and the wall time; then per job its
      arrival, start and end times and its barrier waits; then per host
      in ``"samplers"`` order (which keeps only the host ids) the
      ``cpu``, ``net_in`` and ``net_out`` times and values;
    * ``"ints"`` (int64): per job its local step counts (the job keeps
      the worker names), its number of barriers, their iteration numbers
      and their sample counts; then per host and series the lengths of
      its times and values.

    The config is left out: the cache names the entry by the scenario's
    content key and passes the scenario's config back to
    :func:`result_from_full_dict`.
    """
    data = _hashed_dict(result)
    content_hash = _digest(data)
    del data["config"]
    jcts = data["jcts"]
    data["jcts"] = list(jcts)
    ints: List[int] = []
    floats: List[List[float]] = [
        list(jcts.values()), [data.pop("makespan"), result.wall_seconds],
    ]
    for m in data["metrics"].values():
        floats.append([m.pop("arrival_time"), m.pop("start_time"), m.pop("end_time")])
        steps = m["local_steps"]
        m["local_steps"] = list(steps)
        ints.extend(steps.values())
        waits = m.pop("barrier_waits")
        ints.append(len(waits))
        ints.extend(map(int, waits))
        ints.extend(map(len, waits.values()))
        floats.extend(waits.values())
    for host in data["samplers"].values():
        for kind in _SERIES_KINDS:
            series = host[kind]
            ints.extend((len(series["times"]), len(series["values"])))
            floats.extend((series["times"], series["values"]))
    data["samplers"] = list(data["samplers"])
    data["full_schema_version"] = FULL_SCHEMA_VERSION
    data["content_hash"] = content_hash
    data["tc_reconfigurations"] = result.tc_reconfigurations
    data["ints"] = _pack("q", ints)
    data["floats"] = _pack("d", chain.from_iterable(floats))
    return data


def result_content_hash(result: ExperimentResult) -> str:
    """SHA-256 over every simulated measurement of a run.

    Two runs of the same scenario hash identically if and only if every
    simulated measurement matches — the invariant that the kernel/transport
    fast paths must preserve and that the determinism tests pin.  Left
    out: ``wall_seconds`` (the one field allowed to differ between runs)
    and ``tc_reconfigurations`` (control-plane observability that
    postdates the pinned hashes).  The payload is the frozen schema-2
    layout, so cache storage changes never move a hash.  Always computed
    from the data, never read from ``result.content_hash``: this is what
    proves a decoded result equal to the one that was stored.
    """
    return _digest(_hashed_dict(result))


def result_from_full_dict(
    data: Mapping[str, Any], config: ExperimentConfig
) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_full_dict`.

    The entry does not store the config: the result cache passes its
    scenario's config, which is the stored result's config because the
    entry is named by the scenario's content key.  The stored content
    hash becomes the result's ``content_hash``.
    A malformed block, or counts that do not add up to it, raise
    ``ValueError`` or ``TypeError``.
    """
    version = data.get("full_schema_version")
    if version != FULL_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported full-result schema {version!r} "
            f"(this build reads {FULL_SCHEMA_VERSION})"
        )
    ints = _Block("q", data["ints"])
    floats = _Block("d", data["floats"])
    jcts = dict(zip(data["jcts"], floats.take(len(data["jcts"]))))
    makespan, wall_seconds = floats.take(2)
    metrics = {j: _metrics_from_dict(m, ints, floats)
               for j, m in data["metrics"].items()}
    samplers = {
        h: HostSamples(**{kind: _series_from_blocks(ints, floats)
                          for kind in _SERIES_KINDS})
        for h in data["samplers"]
    }
    ints.close()
    floats.close()
    return ExperimentResult(
        config=config,
        jcts=jcts,
        metrics=metrics,
        ps_host_of_job=dict(data["ps_host_of_job"]),
        samplers=samplers,
        makespan=makespan,
        sim_events=int(data["sim_events"]),
        wall_seconds=wall_seconds,
        tc_commands=list(data["tc_commands"]),
        host_ids=list(data["host_ids"]),
        fault_events=list(data["fault_events"]),
        tc_reconfigurations=int(data["tc_reconfigurations"]),
        content_hash=data["content_hash"],
    )


# -- cache entry framing ----------------------------------------------------

#: Every cache entry starts with these bytes: its header is a JSON
#: object whose first member is the schema version.
_MAGIC = b'{"full_schema_version":'

#: The two packed blocks of a full-result dict, in entry order.
_BLOCKS = ("ints", "floats")


def seal_entry(data: Dict[str, Any]) -> bytes:
    """One cache entry's bytes for :func:`result_to_full_dict`'s ``data``:
    a compact JSON header line (``data`` with each block replaced by its
    byte length), the blocks' raw bytes, and the little-endian CRC-32
    of every byte before it."""
    header = {"full_schema_version": data["full_schema_version"], **data,
              **{name: len(data[name]) for name in _BLOCKS}}
    body = b"".join((
        json.dumps(header, separators=(",", ":")).encode("ascii"), b"\n",
        *(data[name] for name in _BLOCKS),
    ))
    return body + zlib.crc32(body).to_bytes(4, "little")


def unseal_entry(raw: bytes) -> Optional[Dict[str, Any]]:
    """The :func:`result_to_full_dict` dict stored in one entry's bytes.

    ``None`` for an entry of another schema.  The checksum is verified
    before anything is parsed; an entry it does not match raises
    ``ValueError``.  An entry without the schema-5 framing is read as
    the JSON document older builds wrote: one whose ``"result"`` has an
    integer ``full_schema_version`` is stale (``None``), anything else
    raises ``ValueError``, ``KeyError`` or ``TypeError``.
    """
    if not raw.startswith(_MAGIC):
        if not isinstance(json.loads(raw)["result"]["full_schema_version"], int):
            raise TypeError("cache entry has no schema version")
        return None
    body = raw[:-4]
    if zlib.crc32(body) != int.from_bytes(raw[-4:], "little"):
        raise ValueError("cache entry does not match its checksum")
    start = body.index(b"\n") + 1
    data = json.loads(body[:start])
    if data["full_schema_version"] != FULL_SCHEMA_VERSION:
        return None
    for name in _BLOCKS:
        end = start + data[name]
        if not start <= end <= len(body):
            raise ValueError(f"cache entry {name} block overruns the entry")
        data[name], start = body[start:end], end
    if start != len(body):
        raise ValueError("cache entry has bytes after its blocks")
    return data
