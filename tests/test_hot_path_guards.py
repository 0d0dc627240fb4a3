"""Lint-style guard check for hot-path observability calls.

The repo convention (DESIGN.md, docs/architecture.md): every
``metrics.counter(...)`` call on a per-segment or per-event code path
must sit behind a zero-cost ``.enabled`` guard —
otherwise runs with observability off still pay string formatting and
label-tuple construction per segment (the ``NIC._handle_qdisc_drop``
regression this test was added for).

The check is textual on purpose: it greps the net/dl/tensorlights
packages and requires an ``.enabled`` mention within the few lines
preceding each call site (covering both ``if x.enabled:`` guards and
cached-handle refreshes that only run inside an enabled block).
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("net", "dl", "tensorlights")

#: how many preceding lines may hold the guard (indentation-nested calls
#: under one ``if ...enabled:`` block)
GUARD_WINDOW = 8


def _call_sites():
    sites = []
    for pkg in PACKAGES:
        for path in sorted((SRC / pkg).rglob("*.py")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                stripped = line.split("#", 1)[0]
                if "metrics.counter(" in stripped:
                    sites.append((path, i, lines))
    return sites


def test_observability_calls_are_guarded():
    assert _call_sites(), "expected at least one instrumented call site"
    unguarded = []
    for path, i, lines in _call_sites():
        line = lines[i]
        # Cached-handle refresh sites (`self._m_* = metrics.counter(...)`)
        # resolve once per registry generation, never per event; the
        # per-event cost is the guarded `.inc()` on the cached handle.
        if "self._m_" in line and "=" in line.split("metrics.counter", 1)[0]:
            continue
        window = "\n".join(lines[max(0, i - GUARD_WINDOW): i + 1])
        if ".enabled" not in window:
            unguarded.append(f"{path.relative_to(SRC.parent.parent)}:{i + 1}")
    assert not unguarded, (
        "observability calls without a `.enabled` guard within "
        f"{GUARD_WINDOW} lines:\n  " + "\n  ".join(unguarded)
    )


@pytest.mark.parametrize("snippet", ["_handle_qdisc_drop", "egress_drop"])
def test_known_regression_sites_still_guarded(snippet):
    """The NIC drop sites that once built metric labels per segment with
    observability off keep their ``metrics.counter(...)`` call guarded."""
    lines = (SRC / "net" / "nic.py").read_text().splitlines()
    # the site: the drop handler's definition, or the counter named after it
    site = next(i for i, line in enumerate(lines)
                if f"def {snippet}(" in line or f'"nic_{snippet}s"' in line)
    call = next(i for i in range(site - 1, len(lines)) if "metrics.counter(" in lines[i])
    window = "\n".join(lines[max(0, call - GUARD_WINDOW): call + 1])
    assert "metrics.enabled" in window, f"nic.py:{call + 1} unguarded"
