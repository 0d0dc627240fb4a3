"""Global test configuration.

Simulation-heavy property tests legitimately take longer than hypothesis'
default 200 ms deadline, and wall-time deadlines are flaky on shared CI
machines — disable them and cap example counts for a fast suite.  The
``heavy`` profile (``--hypothesis-profile=heavy``) runs about 1000
examples per property for the CI job that searches harder; a test whose
``@settings`` pins ``max_examples`` keeps its own count.
"""

import pytest
from hypothesis import HealthCheck, settings

from repro.net.addressing import FlowKey

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "heavy",
    deadline=None,
    max_examples=1000,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def record_flow_keys(monkeypatch):
    """Call to start recording ``FlowKey`` constructions.

    Returns the list that each later construction appends its new key
    to, so a test can assert that a phase builds no keys.  ``FlowKey``
    is a named tuple, built by ``__new__`` alone, so that is what the
    recorder wraps.
    """

    def start():
        built = []
        original = FlowKey.__new__

        def recording_new(cls, *args, **kwargs):
            key = original(cls, *args, **kwargs)
            built.append(key)
            return key

        monkeypatch.setattr(FlowKey, "__new__", recording_new)
        return built

    return start
