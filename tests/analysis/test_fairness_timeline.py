"""Tests for fairness metrics and the ASCII timeline renderer."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.fairness import jain_index
from repro.analysis.timeline import Span, render_timeline
from repro.errors import ConfigError


# ---------------------------------------------------------------- fairness


def test_jain_perfectly_equal():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_maximally_unequal():
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_validation():
    with pytest.raises(ConfigError):
        jain_index([-1.0, 2.0])


def test_jain_degenerate_inputs_are_fair():
    # Empty and all-zero populations are vacuously fair, not errors.
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([0]) == 1.0


@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=50))
def test_property_jain_bounds(values):
    j = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9


@given(st.floats(min_value=0.001, max_value=1e3), st.integers(min_value=1, max_value=30))
def test_property_jain_scale_invariant(scale, n):
    base = [float(i + 1) for i in range(n)]
    assert jain_index(base) == pytest.approx(jain_index([scale * v for v in base]))


# ---------------------------------------------------------------- timeline


def test_span_validation():
    with pytest.raises(ConfigError):
        Span("x", 2.0, 1.0)


def test_render_timeline_empty_and_width():
    with pytest.raises(ConfigError):
        render_timeline([])
    with pytest.raises(ConfigError):
        render_timeline([Span("a", 0, 1)], width=5)


def test_render_timeline_bar_positions():
    spans = [Span("early", 0.0, 0.5), Span("late", 0.5, 1.0)]
    text = render_timeline(spans, width=20)
    lines = text.splitlines()
    early_bar = lines[0].split("|")[1]
    late_bar = lines[1].split("|")[1]
    # early occupies the left half, late the right half
    assert early_bar[:9].strip("#") == ""
    assert late_bar[:9].strip() == ""
    assert late_bar[10:].count("#") >= 8


def test_render_timeline_zero_length_span_marks_once():
    text = render_timeline([Span("dot", 1.0, 1.0), Span("ref", 0.0, 2.0)], width=20)
    dot_bar = text.splitlines()[0].split("|")[1]
    assert dot_bar.count("#") == 1


def test_render_timeline_axis_and_legend():
    text = render_timeline([Span("a", 0.0, 10.0)], width=20)
    lines = text.splitlines()
    assert "-" * 20 in lines[-2]
    assert "0" in lines[-1] and "10" in lines[-1]


def test_render_with_explicit_window():
    text = render_timeline([Span("a", 5.0, 6.0)], width=20, t0=0.0, t1=10.0)
    bar = text.splitlines()[0].split("|")[1]
    assert bar[:9].strip() == ""  # left half empty: span sits mid-window
