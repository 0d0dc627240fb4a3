"""Repository convention guards.

Cheap meta-tests that keep the public surface documented and the imports
clean as the library grows: every module has a docstring, every public
class and function is documented, declared ``__all__`` names exist, and
no documented deprecation outlives its removal release.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    [name
     for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
    # compiled from C at first import, so no path walk finds it
    + ["repro.net._segpath"]
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_declared_all_names_exist(module_name):
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    mod = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public {undocumented}"


def test_no_module_imports_pytest():
    """Library code must not depend on the test stack."""
    for module_name in MODULES:
        mod = importlib.import_module(module_name)
        source_file = getattr(mod, "__file__", "") or ""
        if not source_file.endswith(".py"):
            continue
        with open(source_file) as fh:
            src = fh.read()
        assert "import pytest" not in src, f"{module_name} imports pytest"
        assert "import hypothesis" not in src, f"{module_name} imports hypothesis"


def test_every_subpackage_reachable_from_root():
    for sub in ("sim", "net", "cluster", "dl", "tensorlights", "telemetry",
                "analysis", "experiments"):
        importlib.import_module(f"repro.{sub}")


def test_version_string():
    assert repro.__version__.count(".") == 2


def _release(text):
    """``"1.5"`` / ``"1.5.0"`` -> ``(1, 5, 0)``."""
    parts = [int(part) for part in text.split(".")]
    return tuple(parts + [0] * (3 - len(parts)))


def test_no_deprecation_is_overdue():
    """Every row of docs/api.md's "Currently deprecated" table must name
    a removal release newer than this one: a shim is deleted when due."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
    assert "## Currently deprecated" in doc
    section = doc.split("## Currently deprecated", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|")
            for line in section.splitlines() if line.startswith("|")]
    current = _release(repro.__version__)
    overdue = [
        cells[0].strip()
        for cells in rows[2:]  # past the header and separator rows
        if cells[-1].strip() and _release(cells[-1].strip()) <= current
    ]
    assert not overdue, f"due for removal by {repro.__version__}: {overdue}"
