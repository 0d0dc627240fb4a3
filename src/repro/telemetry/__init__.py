"""Host telemetry: vmstat-style CPU and ifstat-style NIC sampling.

The paper measures "userspace CPU utilization with vmstat, and the network
interface utilization with ifstat" per host, then averages over a fixed
*active window* when all jobs are running (§V, Result #3).  This package
reproduces that measurement pipeline inside the simulation, plus the
observability layer on top of it: a per-run metrics registry filled at
run end by a component scraper, and JSONL/CSV exporters keyed by
scenario content hash (see docs/observability.md).
"""

from repro.telemetry.exporter import to_csv, to_jsonl, write_csv, write_jsonl
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sampler import HostSampler, SampleSeries
from repro.telemetry.scrape import scrape_cluster
from repro.telemetry.window import ActiveWindow, window_mean

__all__ = [
    "ActiveWindow",
    "Counter",
    "Gauge",
    "Histogram",
    "HostSampler",
    "MetricsRegistry",
    "SampleSeries",
    "scrape_cluster",
    "to_csv",
    "to_jsonl",
    "window_mean",
    "write_csv",
    "write_jsonl",
]
