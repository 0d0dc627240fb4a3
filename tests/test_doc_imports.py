"""Every ``from repro... import ...`` in the prose docs must resolve.

Nothing else runs the documentation's snippets, so a deleted module or
name could stay documented.  Parenthesized multi-line imports count too.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

# A parenthesized name list, or names up to the first character that
# cannot be part of one (a backtick or ``#`` ends a prose mention).
_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[\w ,]+)")


def _doc_imports():
    found = []
    for doc in DOCS:
        if not doc.exists():
            continue
        text = doc.read_text()
        for match in _IMPORT.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            names = re.sub(r"#[^\n]*", "", match.group(2)).strip("()")
            for entry in names.split(","):
                if entry.strip():
                    name = entry.split()[0]  # drop an ``as`` alias
                    found.append((f"{doc.name}:{line}", match.group(1), name))
    return found


DOC_IMPORTS = _doc_imports()


def test_doc_imports_are_found():
    sources = {where.split(":")[0] for where, _, _ in DOC_IMPORTS}
    assert "README.md" in sources
    # the multi-line import block at the top of the API reference
    assert sum(where == "api.md:8" for where, _, _ in DOC_IMPORTS) > 10


@pytest.mark.parametrize(
    "where, module, name", DOC_IMPORTS,
    ids=[f"{w}:{m}.{n}" for w, m, n in DOC_IMPORTS],
)
def test_doc_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule
