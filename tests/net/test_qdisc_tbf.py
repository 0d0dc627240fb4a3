"""Unit tests for the token bucket HTB classes are built from."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QdiscError
from repro.net.qdisc.tbf import TokenBucket


# ---------------------------------------------------------------- TokenBucket


def test_bucket_starts_full():
    b = TokenBucket(rate=100.0, burst=500.0)
    assert b.can_consume(500.0, 0.0)
    assert not b.can_consume(501.0, 0.0)


def test_bucket_starts_empty_when_requested():
    b = TokenBucket(rate=100.0, burst=500.0, start_full=False)
    assert not b.can_consume(1.0, 0.0)
    assert b.can_consume(100.0, 1.0)  # refilled at 100 B/s


def test_bucket_refill_capped_at_burst():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.refill(1000.0)
    assert b.tokens == 500.0


def test_bucket_consume_and_time_until():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.consume(500.0, 0.0)
    assert b.tokens == 0.0
    assert b.time_until(100.0, 0.0) == pytest.approx(1.0)
    assert b.time_until(100.0, 0.5) == pytest.approx(0.5)
    assert b.time_until(0.0, 0.5) == 0.0


def test_bucket_refill_never_goes_backwards():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.refill(2.0)
    tokens = b.tokens
    b.refill(1.0)  # stale time must not change anything
    assert b.tokens == tokens


def test_bucket_invalid_params():
    with pytest.raises(QdiscError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(QdiscError):
        TokenBucket(rate=1.0, burst=0.0)


@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e6),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=1e5),
        ),
        max_size=40,
    ),
)
def test_property_bucket_long_run_rate_bounded(rate, burst, ops):
    """Total consumption over any horizon <= burst + rate * elapsed."""
    b = TokenBucket(rate, burst)
    now = 0.0
    consumed = 0.0
    for dt, amount in ops:
        now += dt
        if b.can_consume(amount, now):
            b.consume(amount, now)
            consumed += amount
    assert consumed <= burst + rate * now + 1e-6
