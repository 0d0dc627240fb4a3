"""Point-to-point link description.

Links are passive in this model: serialization happens at the sender (NIC
or switch port), propagation latency is applied when the sender schedules
the delivery.  ``Link`` is therefore a parameter record plus validation,
shared by the topology builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError


@dataclass(frozen=True, slots=True)
class Link:
    """Link parameters: ``rate`` bytes/second, ``latency`` seconds."""

    rate: float
    latency: float = 5e-6

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise NetworkError(f"link rate must be positive, got {self.rate}")
        if self.latency < 0:
            raise NetworkError(f"link latency must be >= 0, got {self.latency}")
