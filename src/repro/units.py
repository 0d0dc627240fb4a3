"""Unit helpers.

The simulator works in SI base units throughout: **seconds** for time,
**bytes** for data, and **bytes per second** for rates.  These helpers exist
so call sites read like the paper ("10 Gbps links", "1.86 MB updates")
instead of raw exponents.
"""

from __future__ import annotations

import re

from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Decimal kilo/mega/giga for link rates (networking convention).
KBPS = 1e3 / 8.0
MBPS = 1e6 / 8.0
GBPS = 1e9 / 8.0

US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0


def gbps(value: float) -> float:
    """Link rate in gigabits/second -> bytes/second."""
    return value * GBPS


def mbps(value: float) -> float:
    """Link rate in megabits/second -> bytes/second."""
    return value * MBPS


def mib(value: float) -> int:
    """Mebibytes -> bytes (rounded)."""
    return int(round(value * MB))


def kib(value: float) -> int:
    """Kibibytes -> bytes (rounded)."""
    return int(round(value * KB))


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (``1.86 MiB``)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    raise AssertionError("unreachable")


def fmt_rate(bytes_per_s: float) -> str:
    """Human-readable rate in bits/second (``10.00 Gbps``)."""
    bits = bytes_per_s * 8.0
    for unit, scale in (("Gbps", 1e9), ("Mbps", 1e6), ("Kbps", 1e3)):
        if bits >= scale:
            return f"{bits / scale:.2f} {unit}"
    return f"{bits:.0f} bps"


#: Rate unit -> bits/second (tc-style ``bit`` suffixes and ``bps`` names).
_RATE_UNITS = {
    "bit": 1.0, "kbit": 1e3, "mbit": 1e6, "gbit": 1e9, "tbit": 1e12,
    "bps": 1.0, "kbps": 1e3, "mbps": 1e6, "gbps": 1e9, "tbps": 1e12,
}

#: Size unit -> bytes.  The repo's binary convention: KB == KiB == 1024.
_SIZE_UNITS = {
    "b": 1, "kb": KB, "kib": KB, "mb": MB, "mib": MB,
    "gb": GB, "gib": GB, "tb": 1024 * GB, "tib": 1024 * GB,
}

_QTY_RE = re.compile(
    r"\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z/]*)\s*"
)


def _split_quantity(text: str, what: str) -> "tuple[float, str]":
    """``"10 Gbit"`` -> ``(10.0, "gbit")``; raises ConfigError on junk."""
    m = _QTY_RE.fullmatch(text)
    if m is None:
        raise ConfigError(f"cannot parse {what} {text!r}")
    unit = m.group(2).lower()
    if unit.endswith("/s"):
        unit = unit[:-2]
    return float(m.group(1)), unit


def parse_rate(text: str) -> float:
    """Parse a link rate string -> bytes/second (inverse of :func:`fmt_rate`).

    Accepts tc-style bit units (``"10Gbit"``, ``"100 mbit"``), ``bps``
    names (``"10.00 Gbps"``) and an optional ``/s`` suffix, all
    case-insensitive.  Bare numbers are bits/second.
    """
    value, unit = _split_quantity(text, "rate")
    scale = _RATE_UNITS.get(unit if unit else "bit")
    if scale is None:
        raise ConfigError(
            f"unknown rate unit {unit!r} in {text!r} "
            f"(expected one of {sorted(_RATE_UNITS)})"
        )
    return value * scale / 8.0


def parse_size(text: str) -> int:
    """Parse a byte-size string -> bytes (inverse of :func:`fmt_bytes`).

    Accepts ``B``/``KiB``/``MiB``/``GiB``/``TiB`` and their two-letter
    forms (``KB`` == ``KiB`` == 1024, the repo's binary convention),
    case-insensitive.  Bare numbers are bytes.
    """
    value, unit = _split_quantity(text, "size")
    scale = _SIZE_UNITS.get(unit if unit else "b")
    if scale is None:
        raise ConfigError(
            f"unknown size unit {unit!r} in {text!r} "
            f"(expected one of {sorted(_SIZE_UNITS)})"
        )
    return int(round(value * scale))
