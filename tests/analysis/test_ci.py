"""Tests for bootstrap confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ci import ConfidenceInterval, bootstrap_ratio_ci
from repro.errors import ConfigError


def test_validation():
    with pytest.raises(ConfigError):
        bootstrap_ratio_ci([1.0], [1.0])
    with pytest.raises(ConfigError):
        bootstrap_ratio_ci([1.0, 2.0], [1.0, 1.0], confidence=1.0)
    with pytest.raises(ConfigError):
        bootstrap_ratio_ci([1.0, 2.0], [1.0])
    with pytest.raises(ConfigError):
        bootstrap_ratio_ci([1.0, 2.0], [1.0, 0.0])


def test_ratio_ci_contains_point_estimate():
    ci = bootstrap_ratio_ci([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5)
    assert ci.estimate == pytest.approx(3.0)
    assert ci.low <= ci.estimate <= ci.high
    assert 3.0 in ci


def test_ratio_ci_narrows_with_more_samples():
    rng = np.random.default_rng(1)
    small = bootstrap_ratio_ci(rng.normal(10, 1, size=10), [1.0] * 10)
    large = bootstrap_ratio_ci(rng.normal(10, 1, size=1000), [1.0] * 1000)
    assert (large.high - large.low) < (small.high - small.low)


def test_ratio_ci_deterministic_per_seed():
    num, den = [1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]
    a = bootstrap_ratio_ci(num, den, seed=7)
    b = bootstrap_ratio_ci(num, den, seed=7)
    assert (a.low, a.high) == (b.low, b.high)


def test_ci_str():
    ci = ConfidenceInterval(1.0, 0.9, 1.1, 0.95)
    assert "95% CI" in str(ci)


def test_ratio_ci_basic():
    num = [0.8, 0.82, 0.78, 0.81]
    den = [1.0, 1.0, 1.0, 1.0]
    ci = bootstrap_ratio_ci(num, den)
    assert ci.estimate == pytest.approx(np.mean(num))
    assert ci.low <= ci.estimate <= ci.high
    assert ci.high < 1.0  # clearly below parity


def test_ratio_ci_pairing_matters():
    """Correlated pairs give a tighter ratio CI than shuffled pairs."""
    rng = np.random.default_rng(2)
    den = rng.uniform(5, 15, size=40)
    num = den * 0.8  # perfectly correlated: ratio exactly 0.8
    paired = bootstrap_ratio_ci(num, den)
    assert paired.estimate == pytest.approx(0.8)
    assert paired.high - paired.low < 1e-9  # exact under pairing
    shuffled = bootstrap_ratio_ci(num, rng.permutation(den))
    assert shuffled.high - shuffled.low > paired.high - paired.low


@settings(max_examples=20)
@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100.0),
                          st.floats(min_value=0.1, max_value=100.0)),
                min_size=2, max_size=40))
def test_property_ratio_ci_ordering(pairs):
    num, den = zip(*pairs)
    ci = bootstrap_ratio_ci(num, den, n_resamples=200)
    # a ratio of sums is a den-weighted mean of the per-pair ratios
    ratios = [n / d for n, d in pairs]
    assert ci.low <= ci.high
    assert min(ratios) * (1 - 1e-9) <= ci.low
    assert ci.high <= max(ratios) * (1 + 1e-9)
