"""Lint: counts are read at run end, never pushed from the data path.

The repo convention (docs/observability.md): every count lives once, as
a plain attribute of the component that owns the event, and
``scrape_cluster`` reads it into the registry at run end.  Only two
observations are pushed in flight, each behind a zero-cost ``.enabled``
guard: the transport's message-latency histogram and the DL barrier-wait
histogram.

The check walks the AST, so docstrings and comments never count:

* ``net/`` (except that one transport site), ``tensorlights/`` and
  ``sim/watchdog.py`` contain no access to the registry at all — no
  ``.metrics`` attribute, no ``repro.telemetry`` import;
* every registry instrument call in the transport and in
  ``dl/tasks.py`` is a named histogram observation under an
  ``if ... .enabled:`` guard.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: files where the data path must not touch the registry at all
NO_REGISTRY = sorted(
    [*(SRC / "net").rglob("*.py"), *(SRC / "tensorlights").rglob("*.py"),
     SRC / "sim" / "watchdog.py"]
)

#: (file, function) -> the one histogram each in-flight site observes
OBSERVATIONS = {
    ("net/transport.py", "Transport._on_segment_arrival"):
        "transport_msg_latency_seconds",
    ("dl/tasks.py", "WorkerTask.run"): "dl_barrier_wait_seconds",
}

INSTRUMENTS = {"counter", "gauge", "histogram", "span"}


def _rel(path: Path) -> str:
    return path.relative_to(SRC).as_posix()


def _with_parents(tree):
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._parent = node
    return tree


def _ancestors(node):
    while hasattr(node, "_parent"):
        node = node._parent
        yield node


def _function(node) -> str:
    """Qualified name of the def enclosing ``node`` (``Class.method``)."""
    names = [a.name for a in _ancestors(node)
             if isinstance(a, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return ".".join(reversed(names)) or "<module>"


def _registry_uses(path: Path):
    """``(function, node)`` for every registry touch in ``path``."""
    tree = _with_parents(ast.parse(path.read_text()))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "metrics":
            yield _function(node), node
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.telemetry"
        ):
            yield _function(node), node


def _instrument_calls(path: Path):
    """``(function, call, guarded)`` for every ``<x>.metrics`` instrument
    call, or call on a local alias of it, in ``path``."""
    tree = _with_parents(ast.parse(path.read_text()))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in INSTRUMENTS):
            continue
        owner = ast.unparse(node.func.value)
        if owner != "metrics" and not owner.endswith(".metrics"):
            continue
        guarded = any(isinstance(a, ast.If) and ".enabled" in ast.unparse(a.test)
                      for a in _ancestors(node))
        yield _function(node), node, guarded


def test_observability_calls_are_guarded():
    """Each in-flight observation is one named, guarded histogram."""
    found = {}
    for rel in sorted({f for f, _ in OBSERVATIONS}):
        for func, call, guarded in _instrument_calls(SRC / rel):
            where = f"{rel}:{call.lineno}"
            assert guarded, f"{where}: registry call without an `.enabled` guard"
            assert call.func.attr == "histogram", f"{where}: only histograms are pushed"
            name = call.args[0].value if call.args else None
            assert found.setdefault((rel, func), name) == name
    assert found == OBSERVATIONS


def test_no_registry_access_on_the_data_path():
    touches = []
    for path in NO_REGISTRY:
        for func, node in _registry_uses(path):
            if (_rel(path), func) not in OBSERVATIONS:
                touches.append(f"{_rel(path)}:{node.lineno} ({func})")
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
