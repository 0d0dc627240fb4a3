"""Build and load the compiled segment path, ``_segpath.c``.

The C source ships inside the package and is compiled on first import
with the running interpreter's headers: ``cc -O2 -ffp-contract=off``
(the compiler sysconfig names).  Contraction is off because a fused
``a*b + c`` rounds once instead of twice and would move simulated times;
``-ffast-math`` is never used for the same reason.

The shared object is cached in the package's ``__pycache__`` under a
name derived from the SHA-256 of the source, the flags and the
interpreter's ``EXT_SUFFIX``, so a changed source or flag builds a new
file and a fresh interpreter only hashes the source and loads the cached
one.  The build writes a temporary file and renames it into place, so
processes importing at the same time each load a complete module; it
then removes the outdated objects this interpreter built (same
``EXT_SUFFIX``, another key) and keeps other interpreters' objects.
Without a working compiler the import fails with an :class:`ImportError`
naming the command it ran; there is no pure-Python fallback.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Optional, Sequence

SOURCE = Path(__file__).with_name("_segpath.c")
#: optimization and floating-point flags (part of the cache key)
FLAGS = ("-O2", "-ffp-contract=off")
#: GCC only: collect the compiler's heap more often.  The object code is
#: the same; cc1's peak resident set drops from about 67 MB to about 51 MB
#: (GCC 12, x86-64), below what a benchmark process holds itself.
GCC_MEMORY = ("--param", "ggc-min-expand=10", "--param", "ggc-min-heapsize=8192")
MODULE = "repro.net._segpath"


def command(source: Path, output: Path, flags: Sequence[str] = FLAGS) -> list:
    """The compiler command that builds ``source`` into ``output``."""
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if "clang" not in os.path.basename(cmd[0]) and sys.platform != "darwin":
        cmd += GCC_MEMORY
    cmd += [*flags, "-fPIC", "-shared",
            f"-I{sysconfig.get_paths()['include']}",
            str(source), "-o", str(output)]
    if sys.platform == "darwin":
        cmd += ["-undefined", "dynamic_lookup"]
    return cmd


def _suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def cache_path(source: bytes, flags: Sequence[str], cache_dir: Path) -> Path:
    """Where the object built from ``source`` with ``flags`` is cached."""
    suffix = _suffix()
    key = hashlib.sha256(source)
    key.update("\0".join(flags).encode())
    key.update(suffix.encode())
    return cache_dir / f"_segpath.{key.hexdigest()[:16]}{suffix}"


def build(source: Path = SOURCE, flags: Sequence[str] = FLAGS,
          cache_dir: Optional[Path] = None) -> Path:
    """Compile ``source`` unless its cached object exists; return its path."""
    cache_dir = source.parent / "__pycache__" if cache_dir is None else cache_dir
    target = cache_path(source.read_bytes(), flags, cache_dir)
    if target.exists():
        return target
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".segpath-", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    cmd = command(source, Path(tmp), flags)
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(
                f"cannot build {MODULE}: `{shlex.join(cmd)}` did not run "
                f"({exc}); a C compiler is required"
            ) from None
        if proc.returncode != 0:
            raise ImportError(
                f"cannot build {MODULE}: `{shlex.join(cmd)}` exited with "
                f"status {proc.returncode}:\n{proc.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_outdated(target)
    return target


def _remove_outdated(target: Path) -> None:
    """Unlink every cached object beside ``target`` with its suffix and
    another key.  Another process may have removed one already."""
    for path in target.parent.glob(f"_segpath.*{_suffix()}"):
        if path != target and len(path.name) == len(target.name):
            try:
                path.unlink()
            except OSError:
                pass


def load(path: Path) -> ModuleType:
    """Import the extension module at ``path``."""
    spec = importlib.util.spec_from_file_location(MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the compiled module, importable as ``repro.net._segpath`` once loaded
segpath = sys.modules[MODULE] = load(build())
