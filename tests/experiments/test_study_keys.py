"""The ordered content keys each study submits, pinned.

A study's keys are the cache addresses of its results, and their order
is how its report regroups them.  Nothing simulates: ``Campaign.run``
records the submitted keys and aborts.  Each pin is the number of keys
and the SHA-256 of the keys joined by newlines, in submission order.
"""

import hashlib

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig
from repro.experiments.campaign import Campaign
from repro.experiments.study import run_study

PINNED = {
    "ablate --quick --seed 7": (
        8, "1a07f70493e073cff284d89def96707de4ae7c54f466393ef4af456d34501066",
    ),
    "ablate": (
        45, "7b0d626f6778af1816aac182a5da920fa0c3aebbb8a6b662db61731a6d38c941",
    ),
    "codesign --quick --seed 7": (
        12, "f5dd8fb0c5932324ddb1e72a8cc19cde129dcc7c512be4ba1ae7cdd210ec44ca",
    ),
    # window_jitter's knockout (0.0) equals the base value: its rows
    # repeat the TLs default's key, 2 of 30, and still get submitted.
    "run_study": (
        30, "6071e7c44c3ddda83e5202763d493d33359fbe93157c57485b70227c331813d8",
    ),
}


class _Submitted(Exception):
    pass


@pytest.fixture
def submitted_keys(monkeypatch, tmp_path):
    """Call ``start`` up to its first submission; return the keys."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    seen = []

    def record(self, scenarios=None):
        seen.append([s.key() for s in scenarios])
        raise _Submitted

    monkeypatch.setattr(Campaign, "run", record)

    def run(start):
        seen.clear()
        with pytest.raises(_Submitted):
            start()
        return seen[0]

    return run


def _pin(keys):
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_study_submits_its_pinned_keys(submitted_keys, name):
    if name == "run_study":
        keys = submitted_keys(lambda: run_study(
            ExperimentConfig.tiny(window_jitter=0.0), seeds=(1, 2)))
        assert len(set(keys)) == 28
    else:
        keys = submitted_keys(lambda: main(name.split()))
    assert _pin(keys) == PINNED[name]
