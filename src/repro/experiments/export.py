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
from repro.experiments.scenario import config_from_dict, config_to_dict
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
#: 3: every barrier-wait sample and host utilization series is one packed
#:    float64 block (:func:`_pack`); everything else is as in schema 2.
#:    Entries of any other schema are cache misses and re-run once.
FULL_SCHEMA_VERSION = 3

#: Version stamped into the payload the content hash is taken over: the
#: schema-2 layout, every sample a decimal JSON float.  Frozen — every
#: pinned hash depends on it, whatever the cache stores on disk.
HASH_SCHEMA_VERSION = 2

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


def _pack_waits(waits: Mapping[str, List[float]]) -> Dict[str, Any]:
    return {
        "iterations": [int(i) for i in waits],
        "counts": [len(w) for w in waits.values()],
        "samples": _pack(chain.from_iterable(waits.values())),
    }


def _unpack_waits(data: Mapping[str, Any]) -> Dict[int, List[float]]:
    iterations, counts = data["iterations"], data["counts"]
    samples = _unpack(data["samples"])
    if (len(iterations) != len(counts) or min(counts, default=0) < 0
            or sum(counts) != len(samples)):
        raise ValueError("barrier-wait block does not match its counts")
    waits: Dict[int, List[float]] = {}
    end = 0
    for i, n in zip(iterations, counts):
        start, end = end, end + n
        waits[int(i)] = samples[start:end]
    return waits


def _series_to_dict(series: SampleSeries) -> Dict[str, List[float]]:
    return {"times": list(series.times), "values": list(series.values)}


def _series_from_dict(data: Mapping[str, Any]) -> SampleSeries:
    times, values = _unpack(data["times"]), _unpack(data["values"])
    if len(times) != len(values):
        raise ValueError("sample series has unequal times and values")
    return SampleSeries(times=times, values=values)


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


def _metrics_from_dict(data: Mapping[str, Any]) -> JobMetrics:
    barriers = BarrierSeries(int(data["n_workers"]))
    barriers._waits = _unpack_waits(data["barrier_waits"])
    return JobMetrics(
        job_id=data["job_id"],
        n_workers=int(data["n_workers"]),
        arrival_time=float(data["arrival_time"]),
        start_time=float(data["start_time"]),
        end_time=float(data["end_time"]),
        iterations_done=int(data["iterations_done"]),
        local_steps={k: int(v) for k, v in data["local_steps"].items()},
        barriers=barriers,
    )


def _hashed_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Every simulated measurement of a run, in the frozen hash layout.

    This is the one field list of the lossless serialization: the hash
    is taken over it as is, and :func:`result_to_full_dict` packs its
    sample lists and adds the two fields the hash leaves out.
    """
    return {
        "full_schema_version": HASH_SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "jcts": dict(result.jcts),
        "ps_host_of_job": dict(result.ps_host_of_job),
        "metrics": {j: _metrics_to_dict(m) for j, m in result.metrics.items()},
        "samplers": {
            h: {
                "cpu": _series_to_dict(s.cpu),
                "net_in": _series_to_dict(s.net_in),
                "net_out": _series_to_dict(s.net_out),
            }
            for h, s in result.samplers.items()
        },
        "makespan": result.makespan,
        "sim_events": result.sim_events,
        "tc_commands": list(result.tc_commands),
        "host_ids": list(result.host_ids),
        "fault_events": list(result.fault_events),
    }


def result_to_full_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Losslessly flatten one run for the campaign result cache.

    Unlike :func:`result_to_dict` (a summary for downstream plotting),
    this preserves every measurement — per-barrier wait samples and host
    utilization series included — so :func:`result_from_full_dict` gives
    back an :class:`ExperimentResult` that answers every query the
    original did.  Sample lists are stored as packed float64 blocks
    (bit-exact, and no decimal parsing on a cache hit): a job's barrier
    waits as one block plus the iteration numbers and the sample count
    of each, a host series as one block per axis.
    """
    data = _hashed_dict(result)
    data["full_schema_version"] = FULL_SCHEMA_VERSION
    for m in data["metrics"].values():
        m["barrier_waits"] = _pack_waits(m["barrier_waits"])
    for host in data["samplers"].values():
        for kind, series in host.items():
            host[kind] = {axis: _pack(v) for axis, v in series.items()}
    data["wall_seconds"] = result.wall_seconds
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
    layout, so cache storage changes never move a hash.
    """
    blob = json.dumps(_hashed_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_from_full_dict(data: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_full_dict`.

    A malformed packed block raises ``ValueError`` or ``TypeError``.
    """
    version = data.get("full_schema_version")
    if version != FULL_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported full-result schema {version!r} "
            f"(this build reads {FULL_SCHEMA_VERSION})"
        )
    return ExperimentResult(
        config=config_from_dict(data["config"]),
        jcts={k: float(v) for k, v in data["jcts"].items()},
        metrics={j: _metrics_from_dict(m) for j, m in data["metrics"].items()},
        ps_host_of_job=dict(data["ps_host_of_job"]),
        samplers={
            h: HostSamples(
                cpu=_series_from_dict(s["cpu"]),
                net_in=_series_from_dict(s["net_in"]),
                net_out=_series_from_dict(s["net_out"]),
            )
            for h, s in data["samplers"].items()
        },
        makespan=float(data["makespan"]),
        sim_events=int(data["sim_events"]),
        wall_seconds=float(data["wall_seconds"]),
        tc_commands=list(data["tc_commands"]),
        host_ids=list(data["host_ids"]),
        fault_events=list(data["fault_events"]),
        tc_reconfigurations=int(data["tc_reconfigurations"]),
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
