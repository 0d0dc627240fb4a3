"""Pinned fixed-seed content hashes.

These hashes were captured from the pre-optimization pipeline (before the
tuple-heap kernel and the transport/NIC fast paths) and pin the invariant
those optimizations promised: *byte-identical* results, not merely
statistically equivalent ones.  A mismatch means an arithmetic or
event-ordering change leaked into the hot path — e.g. replacing
``size / rate`` with a precomputed reciprocal, reordering same-time
events, or coalescing segments.

If a change *intends* to alter results (a model fix, a new measurement),
regenerate with::

    PYTHONPATH=src python -c "
    from repro.api import Scenario, execute_scenario
    from repro.experiments.export import result_content_hash
    ..."

and say so in the commit message; never regenerate to make an
optimization pass.
"""

import pytest

from repro.cluster.placement import PlacementSpec
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.export import result_content_hash
from repro.experiments.runtime import execute_scenario
from repro.experiments.scenario import Scenario

#: (scenario, sha256 of the lossless result dict minus wall_seconds);
#: captured at commit 8e4837a, before the fast-path kernel landed.
GOLDEN = [
    pytest.param(
        Scenario(config=ExperimentConfig.tiny()),
        "49f5e3d75035eac61f827d5e1f81a835e35320c4c0043916e6c684ac6afffb8f",
        id="fig1-fifo",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(policy=Policy.TLS_ONE)),
        "91640d163a1e3b97e9c2ccb7486c1b98a515d23f7eb78a76dfe6954ed4b425ee",
        id="fig1-tls-one",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(
            architecture=Architecture.ALLREDUCE)),
        "675ec19b9f6404ab4f2ad610f50af9060419c2424a1b38d5203c597d418cdc04",
        id="collectives-ring",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(
            architecture=Architecture.MIXED, policy=Policy.TLS_ONE
        )),
        "065dc55288967dd135d6f2ab484fa3d421c3ce25e3ce9fe848e1e3ea6449fa46",
        id="collectives-mixed",
    ),
    # Multi-channel rings stripe chunks over distinct flows, so these pin
    # the per-step channel/port arithmetic the single-channel cases above
    # cannot see (captured at commit 5d1bb7a).
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(
            architecture=Architecture.ALLREDUCE, allreduce_channels=3
        )),
        "7c115bdeed508399cbf0af1d1fa056cd2bc228104b802e007c0cf8927ce4e613",
        id="collectives-ring-3ch",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(
            architecture=Architecture.MIXED, policy=Policy.TLS_RR,
            allreduce_channels=2,
        )),
        "9964d1c8e5a56896bf9adbb24d9500145469c79fcd4234f8abe9ddadab965b79",
        id="collectives-mixed-tls-rr-2ch",
    ),
    # The PS-only TLs-RR controller and a scenario-level placement
    # override (the A5 shape) pin the controller and Table I placement
    # build paths (captured at commit 9f2dc55).
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(policy=Policy.TLS_RR)),
        "4c4344d58dc485b6e6fd096db4e88dc1a3a5ecf8979be9170003541ee312d73c",
        id="fig1-tls-rr",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(), placement=PlacementSpec((2, 2))),
        "d6dff3e1bf52fe18f4da0ee09c66c861530d84f6d5004be54808efd85416d66c",
        id="placement-override-2-2",
    ),
    # Sharded-model and asynchronous jobs pin the multi-shard worker
    # barrier and the async PS echo loop (captured at commit 9a04736).
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(n_ps=2)),
        "46c8a31401df1b05b27427d22e0a4b8f4ebe9fd8684cce43f772c8a92c1a2099",
        id="sharded-2ps",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(n_ps=3, policy=Policy.TLS_RR)),
        "997d480b896206ab0b7ca63f87ea56eb05b8f18a8d0320fd40adfb1e87265934",
        id="sharded-3ps-tls-rr",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(sync=False)),
        "19511abefb61648a86e40d4377c73c428b510d4a6f644ee0a1ff103ccf9c3970",
        id="async-fifo",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(sync=False, policy=Policy.TLS_ONE)),
        "54dbc59aa4d801d6fe702c305303999b246356c491f9319b673ffa9a011d06e0",
        id="async-tls-one",
    ),
    pytest.param(
        Scenario(config=ExperimentConfig.tiny(sync=False, n_ps=2)),
        "4d9af20a109115b9af4cc14ea743b778c9331d8cf6f0f33fb1b977e79fbae109",
        id="async-sharded-2ps",
    ),
]


@pytest.mark.parametrize("scenario, expected", GOLDEN)
def test_content_hash_matches_pre_optimization_pipeline(scenario, expected):
    res = execute_scenario(scenario)
    assert result_content_hash(res) == expected


def test_same_scenario_twice_hashes_identically():
    cfg = ExperimentConfig.tiny(seed=123)
    a = execute_scenario(Scenario(config=cfg))
    b = execute_scenario(Scenario(config=cfg))
    assert result_content_hash(a) == result_content_hash(b)


def test_hash_ignores_wall_clock_but_not_measurements():
    cfg = ExperimentConfig.tiny()
    a = execute_scenario(Scenario(config=cfg))
    b = execute_scenario(Scenario(config=cfg))
    # wall_seconds always differs between runs; the hash must not see it
    assert a.wall_seconds != b.wall_seconds
    assert result_content_hash(a) == result_content_hash(b)
    # but a different seed must change the hash
    other = execute_scenario(Scenario(config=ExperimentConfig.tiny(seed=999)))
    assert result_content_hash(other) != result_content_hash(a)
