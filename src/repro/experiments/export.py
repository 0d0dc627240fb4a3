"""Result export: JSON and CSV serialization of experiment results.

Downstream users typically feed results into their own plotting pipeline;
these helpers flatten :class:`~repro.experiments.runtime.ExperimentResult`
objects into stable, documented schemas.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import sys
from array import array
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping

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
#: 4: the content hash is stored beside the data it covers, and every
#:    float measurement (JCTs, times, barrier waits, host utilization
#:    series) is in one packed float64 block (:func:`_pack`) for the
#:    whole result; the rest of the layout says which value is which.
#:    Entries of any other schema are cache misses and re-run once.
FULL_SCHEMA_VERSION = 4

#: Version stamped into the payload the content hash is taken over: the
#: schema-2 layout, every sample a decimal JSON float.  Frozen — every
#: pinned hash depends on it, whatever the cache stores on disk.
HASH_SCHEMA_VERSION = 2

#: The three series of a host's utilization samples, in block order.
_SERIES_KINDS = ("cpu", "net_in", "net_out")

_BIG_ENDIAN = sys.byteorder == "big"


def _pack(values: Iterable[float]) -> str:
    """``values`` as one base64 block of little-endian float64s."""
    block = array("d", values)
    if _BIG_ENDIAN:
        block.byteswap()
    return base64.b64encode(block.tobytes()).decode("ascii")


def _unpack(block: str) -> List[float]:
    """Inverse of :func:`_pack`, bit for bit; malformed input raises
    ``ValueError`` (``binascii.Error`` included) or ``TypeError``."""
    values = array("d")
    values.frombytes(base64.b64decode(block, validate=True))
    if _BIG_ENDIAN:
        values.byteswap()
    return values.tolist()


class _Block:
    """Reads consecutive sample lists off one unpacked block."""

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self.end = 0

    def take(self, count: int) -> List[float]:
        if count < 0:
            raise ValueError(f"negative sample count {count}")
        start = self.end
        self.end += count
        return self.samples[start:self.end]

    def close(self) -> None:
        if self.end != len(self.samples):
            raise ValueError(
                f"sample block holds {len(self.samples)} values, "
                f"its counts say {self.end}"
            )


def _series_to_dict(series: SampleSeries) -> Dict[str, List[float]]:
    return {"times": list(series.times), "values": list(series.values)}


def _series_from_counts(counts: Mapping[str, Any], block: _Block) -> SampleSeries:
    if counts["times"] != counts["values"]:
        raise ValueError("sample series has unequal times and values")
    return SampleSeries(times=block.take(counts["times"]),
                        values=block.take(counts["values"]))


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


def _metrics_from_dict(data: Mapping[str, Any], block: _Block) -> JobMetrics:
    arrival_time, start_time, end_time = block.take(3)
    waits = data["barrier_waits"]
    iterations, counts = waits["iterations"], waits["counts"]
    if len(iterations) != len(counts):
        raise ValueError("barrier-wait iterations do not match their counts")
    barriers = BarrierSeries(data["n_workers"])
    barriers._waits = dict(zip(iterations, map(block.take, counts)))
    return JobMetrics(
        job_id=data["job_id"],
        n_workers=data["n_workers"],
        arrival_time=arrival_time,
        start_time=start_time,
        end_time=end_time,
        iterations_done=data["iterations_done"],
        local_steps=data["local_steps"],
        barriers=barriers,
    )


def _hashed_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Every simulated measurement of a run, in the frozen hash layout.

    This is the one field list of the lossless serialization: the hash
    is taken over it as is, and :func:`result_to_full_dict` packs its
    sample lists and adds the fields the hash leaves out.
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
    every float measurement is then moved into one packed float64 block
    (``"samples"``; bit-exact, and no decimal parsing on a cache hit).
    The block holds the JCTs in ``"jcts"`` order (which keeps only the
    job ids), the makespan and the wall time; then per job its arrival,
    start and end times and its barrier waits, of which the job keeps
    the iteration numbers and the sample count of each; then per host
    the ``cpu``, ``net_in`` and ``net_out`` times and values, of which
    the host keeps each series' counts.  The config is left out: the
    cache names the entry by the scenario's content key and passes the
    scenario's config back to :func:`result_from_full_dict`.
    """
    data = _hashed_dict(result)
    content_hash = _digest(data)
    del data["config"]
    jcts = data["jcts"]
    data["jcts"] = list(jcts)
    lists: List[List[float]] = [
        list(jcts.values()), [data.pop("makespan"), result.wall_seconds],
    ]
    for m in data["metrics"].values():
        lists.append([m.pop("arrival_time"), m.pop("start_time"), m.pop("end_time")])
        waits = m["barrier_waits"]
        m["barrier_waits"] = {
            "iterations": [int(i) for i in waits],
            "counts": [len(w) for w in waits.values()],
        }
        lists.extend(waits.values())
    for host in data["samplers"].values():
        for kind, series in host.items():
            host[kind] = {axis: len(v) for axis, v in series.items()}
            lists.extend(series.values())
    data["full_schema_version"] = FULL_SCHEMA_VERSION
    data["content_hash"] = content_hash
    data["samples"] = _pack(chain.from_iterable(lists))
    data["tc_reconfigurations"] = result.tc_reconfigurations
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
    A malformed sample block, or counts that do not add up to it, raise
    ``ValueError`` or ``TypeError``.
    """
    version = data.get("full_schema_version")
    if version != FULL_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported full-result schema {version!r} "
            f"(this build reads {FULL_SCHEMA_VERSION})"
        )
    block = _Block(_unpack(data["samples"]))
    jcts = dict(zip(data["jcts"], block.take(len(data["jcts"]))))
    makespan, wall_seconds = block.take(2)
    metrics = {j: _metrics_from_dict(m, block) for j, m in data["metrics"].items()}
    samplers = {
        h: HostSamples(**{kind: _series_from_counts(s[kind], block)
                          for kind in _SERIES_KINDS})
        for h, s in data["samplers"].items()
    }
    block.close()
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


def from_json(text: str) -> List[Dict[str, Any]]:
    """Parse a JSON export back into dicts (with schema check)."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ConfigError("export must be a JSON array of runs")
    for run in data:
        version = run.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema version {version!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
    return data
