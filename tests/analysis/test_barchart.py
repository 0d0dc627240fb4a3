"""Tests for the ASCII bar chart renderer."""

import pytest

from repro.analysis.barchart import Bar, render_barchart
from repro.errors import ConfigError


def test_bar_validation():
    with pytest.raises(ConfigError):
        Bar("x", -1.0)


def test_render_validation():
    with pytest.raises(ConfigError):
        render_barchart([])
    with pytest.raises(ConfigError):
        render_barchart([Bar("a", 1.0)], width=3)


def test_bar_lengths_proportional():
    text = render_barchart([Bar("full", 10.0), Bar("half", 5.0)], width=20)
    full_line, half_line = text.splitlines()
    assert full_line.count("█") == 20
    assert abs(half_line.count("█") - 10) <= 1


def test_values_annotated():
    text = render_barchart([Bar("a", 0.73, annotation="27% better")], width=20)
    assert "0.73" in text and "(27% better)" in text


def test_reference_marker_drawn():
    text = render_barchart([Bar("a", 0.5)], width=20, max_value=None,
                           reference=1.0)
    [line] = text.splitlines()
    assert line.rstrip().split()[-1] == "0.5"
    assert "|" in line  # the reference tick beyond the bar


def test_reference_extends_scale():
    # value 0.5 with reference 1.0: bar is half the width
    text = render_barchart([Bar("a", 0.5)], width=20, reference=1.0)
    assert abs(text.count("█") - 10) <= 1


def test_title_and_alignment():
    text = render_barchart(
        [Bar("short", 1.0), Bar("a-longer-label", 2.0)],
        width=12, title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    # bars start at the same column
    assert lines[1].index("█") >= len("a-longer-label")
    assert lines[1].index("█") == lines[2].index("█")


def test_zero_values_render():
    text = render_barchart([Bar("zero", 0.0), Bar("one", 1.0)], width=10)
    assert "zero" in text


def test_normalized_jct_chart_shape():
    """The Figure-5a use case: normalized bars against the FIFO line."""
    bars = [Bar("fifo", 1.0, "baseline"), Bar("tls-one", 0.70, "-30%"),
            Bar("tls-rr", 0.74, "-26%")]
    text = render_barchart(bars, width=40, reference=1.0,
                           title="normalized JCT (placement #1)")
    lines = text.splitlines()
    assert len(lines) == 4
    fifo_len = lines[1].count("█")
    tls_len = lines[2].count("█")
    assert tls_len < fifo_len
