"""Unit tests for analysis statistics and normalization helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import Cdf, normalized_jct, performance_gap
from repro.errors import ConfigError


# ---------------------------------------------------------------- Cdf


def test_cdf_empty_rejected():
    with pytest.raises(ConfigError):
        Cdf([])


def test_cdf_basics():
    c = Cdf([1.0, 2.0, 3.0, 4.0])
    assert c.n == 4
    assert c.at(0.0) == 0.0
    assert c.at(2.0) == 0.5
    assert c.at(10.0) == 1.0
    assert c.median == pytest.approx(2.5)
    assert c.mean == pytest.approx(2.5)


def test_cdf_quantile_bounds():
    c = Cdf([1.0, 2.0])
    with pytest.raises(ConfigError):
        c.quantile(1.5)
    assert c.quantile(0.0) == 1.0
    assert c.quantile(1.0) == 2.0


def test_cdf_points_monotone():
    c = Cdf(np.random.default_rng(0).random(100))
    pts = c.points(20)
    xs = [x for x, _ in pts]
    qs = [q for _, q in pts]
    assert xs == sorted(xs)
    assert qs == sorted(qs)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_property_cdf_at_is_valid_probability(samples):
    c = Cdf(samples)
    for x in samples[:10]:
        p = c.at(x)
        assert 0.0 < p <= 1.0  # x itself is included (right side)


# ---------------------------------------------------------------- normalize


def test_normalized_jct():
    out = normalized_jct({"a": 73.0, "b": 100.0}, {"a": 100.0, "b": 100.0})
    assert out == {"a": pytest.approx(0.73), "b": pytest.approx(1.0)}


def test_normalized_jct_mismatched_jobs():
    with pytest.raises(ConfigError):
        normalized_jct({"a": 1.0}, {"b": 1.0})


def test_normalized_jct_zero_baseline():
    with pytest.raises(ConfigError):
        normalized_jct({"a": 1.0}, {"a": 0.0})


def test_performance_gap():
    # paper: up to 75% gap between best and worst placements
    assert performance_gap([100.0, 175.0]) == pytest.approx(0.75)
    assert performance_gap([5.0, 5.0, 5.0]) == 0.0
    with pytest.raises(ConfigError):
        performance_gap([1.0])
    with pytest.raises(ConfigError):
        performance_gap([0.0, 1.0])


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.1, max_value=1e3),
        min_size=1,
    )
)
def test_property_normalizing_by_self_gives_ones(values):
    out = normalized_jct(values, values)
    assert all(v == pytest.approx(1.0) for v in out.values())
