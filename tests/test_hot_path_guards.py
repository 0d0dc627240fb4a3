"""Lint: the data path never sees the metrics registry or the watchdog.

The repo convention (docs/observability.md): every count lives once, as
a plain attribute of the component that owns the event, every barrier
wait lives in its job's ``BarrierSeries``, and ``scrape_cluster`` reads
them into the run's registry at run end.  Message latency, the one
observation made during the run, comes from a delivery tap that
``materialize`` installs from outside.

The check walks the AST, so docstrings and comments never count.  No
module under ``net/``, ``dl/``, ``collectives/``, ``tensorlights/`` or
``sim/`` imports ``repro.telemetry``, names ``MetricsRegistry``, reads a
simulator's ``.metrics`` (a job's ``JobMetrics`` is the one
``.metrics`` they own) or calls a registry instrument.

The watchdog is the run's too: ``materialize`` builds it and hands it to
whoever reports into it (the TensorLights controller's reconcile).  No
module under ``net/``, ``dl/``, ``collectives/`` or ``tensorlights/``,
nor ``sim/kernel.py``, reads a simulator's ``.watchdog`` or looks one up
with ``getattr(..., "watchdog")``, and the kernel does not import
``repro.sim.watchdog``.

The wall-clock budget is the kernel's too: ``Simulator.run(deadline=)``
stops the loop between two callbacks.  No module under ``src/repro``
imports ``ctypes`` or ``threading`` or names
``PyThreadState_SetAsyncExc``, so no thread injects an exception into a
running simulation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the simulated system: none of these may touch a registry
DATA_PATH = sorted(
    path
    for package in ("net", "dl", "collectives", "tensorlights", "sim")
    for path in (SRC / package).rglob("*.py")
)

#: the simulated system and the kernel: none may look up a watchdog
WATCHDOG_FREE = sorted(
    path
    for package in ("net", "dl", "collectives", "tensorlights")
    for path in (SRC / package).rglob("*.py")
) + [SRC / "sim" / "kernel.py"]

#: registry instrument accessors
INSTRUMENTS = {"counter", "gauge", "histogram"}


def _rel(path: Path) -> str:
    return path.relative_to(SRC).as_posix()


def _registry_uses(path: Path):
    """``node`` for every registry touch in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.telemetry"
        ):
            yield node
        elif isinstance(node, ast.Import) and any(
            alias.name.startswith("repro.telemetry") for alias in node.names
        ):
            yield node
        elif isinstance(node, ast.Name) and node.id == "MetricsRegistry":
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == "metrics":
            owner = ast.unparse(node.value)
            if owner == "sim" or owner.endswith(".sim"):
                yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in INSTRUMENTS):
            yield node


def _watchdog_lookups(path: Path):
    """``node`` for every simulator-owned watchdog lookup in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "watchdog":
            owner = ast.unparse(node.value)
            if owner == "sim" or owner.endswith(".sim"):
                yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "watchdog"):
            yield node
        elif path.name == "kernel.py" and isinstance(
            node, (ast.Import, ast.ImportFrom)
        ) and "repro.sim.watchdog" in ast.unparse(node):
            yield node


#: modules whose import would let a thread interrupt a running simulation
THREAD_INJECTION_MODULES = {"ctypes", "threading"}
ASYNC_EXC = "PyThreadState_SetAsyncExc"


def _thread_injection_uses(path: Path):
    """``node`` for every ``ctypes``/``threading`` import in ``path`` and
    every name, attribute or string that is ``PyThreadState_SetAsyncExc``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            if ASYNC_EXC in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "value", None)):
                yield node
            continue
        if any(m.split(".")[0] in THREAD_INJECTION_MODULES for m in modules):
            yield node


def test_lint_sees_every_data_path_package():
    assert {_rel(p).split("/")[0] for p in DATA_PATH} == {
        "net", "dl", "collectives", "tensorlights", "sim"
    }


def test_no_registry_access_on_the_data_path():
    touches = [
        f"{_rel(path)}:{node.lineno}: {ast.unparse(node)}"
        for path in DATA_PATH
        for node in _registry_uses(path)
    ]
    assert not touches, (
        "the data path keeps plain counts; scrape_cluster reads them at "
        "run end:\n  " + "\n  ".join(touches)
    )


@pytest.mark.parametrize("snippet", ["_handle_qdisc_drop", "egress_drop"])
def test_known_regression_sites_still_guarded(snippet):
    """The NIC drop sites that once built metric labels per segment with
    observability off now bump a plain integer and never see the
    registry."""
    count = {"_handle_qdisc_drop": "qdisc_drops", "egress_drop": "egress_drops"}
    path = SRC / "net" / "nic.py"
    assert not list(_registry_uses(path))
    assert f"self.{count[snippet]} += 1" in path.read_text()


def test_no_watchdog_lookup_on_the_data_path():
    lookups = [
        f"{_rel(path)}:{node.lineno}: {ast.unparse(node)}"
        for path in WATCHDOG_FREE
        for node in _watchdog_lookups(path)
    ]
    assert not lookups, (
        "the watchdog is the run's: materialize builds it and hands it to "
        "whoever reports into it:\n  " + "\n  ".join(lookups)
    )


def test_no_thread_injects_into_a_run():
    uses = [
        f"{_rel(path)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _thread_injection_uses(path)
    ]
    assert not uses, (
        "the kernel enforces the wall-clock budget (Simulator.run(deadline=)); "
        "nothing may inject an exception from another thread:\n  "
        + "\n  ".join(uses)
    )
