"""``tbf`` — the token bucket HTB classes are built from.

Tokens refill at ``rate`` bytes/second up to ``burst`` bytes; a class may
send a segment once the bucket holds enough tokens.
"""

from __future__ import annotations

from repro.errors import QdiscError


#: Absolute tolerance (in bytes) when testing token availability.  Guards
#: against float-rounding deadlocks where a bucket is short by ~1e-10
#: bytes and the computed refill delay underflows the clock.
TOKEN_EPSILON = 1e-6


class TokenBucket:
    """A plain token bucket: ``rate`` bytes/s refill, ``burst`` bytes cap."""

    __slots__ = ("rate", "burst", "tokens", "last_update")

    def __init__(self, rate: float, burst: float, start_full: bool = True) -> None:
        if rate <= 0:
            raise QdiscError(f"token bucket rate must be positive, got {rate}")
        if burst <= 0:
            raise QdiscError(f"token bucket burst must be positive, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst if start_full else 0.0
        self.last_update = 0.0

    def refill(self, now: float) -> None:
        if now > self.last_update:
            self.tokens = min(self.burst, self.tokens + (now - self.last_update) * self.rate)
            self.last_update = now

    def can_consume(self, amount: float, now: float) -> bool:
        self.refill(now)
        return self.tokens >= amount - TOKEN_EPSILON

    def consume(self, amount: float, now: float) -> None:
        self.refill(now)
        self.tokens -= amount  # may go negative when HTB force-charges

    def time_until(self, amount: float, now: float) -> float:
        """Seconds from ``now`` until ``amount`` tokens are available."""
        self.refill(now)
        deficit = amount - TOKEN_EPSILON - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate
