"""Unit tests for the units helpers."""

import pytest

from repro import units
from repro.errors import ConfigError


def test_byte_constants():
    assert units.KB == 1024
    assert units.MB == 1024 ** 2
    assert units.GB == 1024 ** 3


def test_rate_conversions():
    assert units.gbps(10) == pytest.approx(10e9 / 8)
    assert units.mbps(1) == pytest.approx(1e6 / 8)


def test_byte_helpers():
    assert units.kib(1) == 1024
    assert units.mib(1.5) == int(1.5 * 1024 ** 2)


def test_fmt_bytes():
    assert units.fmt_bytes(512) == "512 B"
    assert units.fmt_bytes(1024) == "1.00 KiB"
    assert units.fmt_bytes(1.86 * 1024 ** 2) == "1.86 MiB"


def test_fmt_rate():
    assert units.fmt_rate(units.gbps(10)) == "10.00 Gbps"
    assert units.fmt_rate(units.mbps(5)) == "5.00 Mbps"
    assert units.fmt_rate(10) == "80 bps"


def test_parse_rate():
    assert units.parse_rate("10Gbit") == units.gbps(10)
    assert units.parse_rate("100 mbit") == units.mbps(100)
    assert units.parse_rate("2.5 Gbit/s") == units.gbps(2.5)
    assert units.parse_rate("10.00 Gbps") == units.gbps(10)
    assert units.parse_rate("8") == 1.0  # bare numbers are bits/second


def test_parse_rate_round_trips_fmt_rate():
    for rate in (units.gbps(10), units.mbps(5), units.gbps(1.25)):
        assert units.parse_rate(units.fmt_rate(rate)) == pytest.approx(
            rate, rel=0.005
        )


def test_parse_rate_rejects_junk():
    with pytest.raises(ConfigError):
        units.parse_rate("fast")
    with pytest.raises(ConfigError):
        units.parse_rate("10 parsecs")


def test_parse_size():
    assert units.parse_size("128KiB") == 128 * 1024
    assert units.parse_size("4MB") == 4 * units.MB  # binary convention
    assert units.parse_size("1.86 MiB") == int(round(1.86 * units.MB))
    assert units.parse_size("512") == 512


def test_parse_size_round_trips_fmt_bytes():
    for n in (512, 1024, 1_856_616, 4 * units.MB):
        assert units.parse_size(units.fmt_bytes(n)) == pytest.approx(
            n, rel=0.005
        )


def test_parse_size_rejects_junk():
    with pytest.raises(ConfigError):
        units.parse_size("big")
    with pytest.raises(ConfigError):
        units.parse_size("4 floppies")

