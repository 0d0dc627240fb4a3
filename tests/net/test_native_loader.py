"""The loader of the compiled segment path (``repro.net._native``).

A changed source or flag set builds a new cache file and removes the
outdated one, keeping other interpreters' objects; processes that
import at the same time each load one complete module; a missing
compiler is an ``ImportError`` that names the command; and the shipped
source compiles without a warning under ``-Wall -Wextra -Werror``, so
each interpreter of the CI matrix checks it against its own headers.
Builds in these tests use ``-O0`` where the optimizer does not matter.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net import _native
from repro.net._native import segpath

ROOT = Path(__file__).resolve().parents[2]
QUICK = ("-O0",)


@pytest.fixture
def source(tmp_path):
    copy = tmp_path / "_segpath.c"
    shutil.copyfile(_native.SOURCE, copy)
    return copy


def test_flags_keep_float_results():
    assert "-ffp-contract=off" in _native.FLAGS
    assert not any("fast-math" in flag or flag == "-Ofast" for flag in _native.FLAGS)


def test_module_is_documented_and_bound():
    assert segpath.__doc__ and segpath.__doc__.strip()
    assert segpath.__name__ == "repro.net._segpath"
    assert Path(segpath.__file__).parent.name == "__pycache__"


def test_changed_source_or_flags_build_a_new_cache_file(source, tmp_path):
    cache = tmp_path / "cache"
    first = _native.build(source, QUICK, cache)
    stamp = first.stat().st_mtime_ns
    assert _native.build(source, QUICK, cache) == first
    assert first.stat().st_mtime_ns == stamp  # a hit: nothing rebuilt
    flagged = _native.build(source, QUICK + ("-DSEGPATH_PROBE",), cache)
    source.write_text(source.read_text() + "\n/* changed */\n")
    changed = _native.build(source, QUICK, cache)
    assert len({first, flagged, changed}) == 3
    assert [p.name for p in cache.iterdir()] == [changed.name]
    assert hasattr(_native.load(changed), "bind_nic")


def test_rebuild_removes_the_outdated_object_and_keeps_foreign_ones(
        source, tmp_path):
    cache = tmp_path / "cache"
    old = _native.build(source, QUICK, cache)
    # an object another interpreter built: same key shape, other suffix
    foreign = cache / (old.name[:len("_segpath.") + 16] + ".cpython-0-other.so")
    foreign.write_bytes(b"")
    new = _native.build(source, QUICK + ("-Wall", "-Wextra", "-Werror"), cache)
    assert new != old and not old.exists()
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [new.name, foreign.name])


def test_concurrent_first_imports_load_one_valid_module(source, tmp_path):
    cache = tmp_path / "cache"
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.net import _native\n"
        f"p = _native.build(Path({str(source)!r}), {QUICK!r}, Path({str(cache)!r}))\n"
        "m = _native.load(p)\n"
        "print(p.name, callable(m.bind_nic))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    lines = {out.strip() for out, _ in outs}
    assert len(lines) == 1 and lines.pop().endswith(" True")
    # one complete object, no temporary file left behind
    assert len(list(cache.iterdir())) == 1


def test_missing_compiler_is_an_import_error_naming_the_command(
        source, tmp_path, monkeypatch):
    cmd = _native.command(source, tmp_path / "out.so")
    if os.path.isabs(cmd[0]):
        pytest.skip(f"the interpreter names its compiler by path ({cmd[0]})")
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(ImportError, match=cmd[0]) as info:
        _native.build(source, QUICK, tmp_path / "cache")
    assert "-ffp-contract" not in str(info.value)  # QUICK flags were run
    assert "-O0" in str(info.value)
    assert not list((tmp_path / "cache").iterdir())


def test_source_compiles_without_warnings(tmp_path):
    strict = _native.FLAGS + ("-Wall", "-Wextra", "-Werror")
    cmd = _native.command(_native.SOURCE, tmp_path / "strict.so", strict)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_source_ships_as_package_data():
    text = (ROOT / "pyproject.toml").read_text()
    assert '[tool.setuptools.package-data]' in text
    assert '"net/_segpath.c"' in text
