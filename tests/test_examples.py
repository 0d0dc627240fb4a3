"""Import smoke test for the runnable examples.

Nothing else exercises ``examples/``, so a name removed from the library
would otherwise break an example silently.  Each example guards its run
behind ``if __name__ == "__main__"``; importing it resolves every import
and top-level definition without running the study.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_cleanly(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
