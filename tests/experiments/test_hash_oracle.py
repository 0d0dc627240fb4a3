"""The result content hash against its frozen schema-2 oracle.

The result cache stores numbers as packed int64 and float64 blocks, but the
content hash is still taken over the schema-2 layout of decimal floats
(``tests/experiments/hash_oracle.py``).  These cases cover every shape a
result's sample lists take: PS jobs under FIFO and under TensorLights,
ring all-reduce jobs, barriers that proceed with a different number of
survivors per iteration, and host utilization series.
"""

import pytest

from repro.experiments import ExperimentConfig, Scenario, execute_scenario
from repro.experiments.export import seal_entry, unseal_entry
from repro.experiments.config import Architecture, Policy
from repro.experiments.export import (
    result_content_hash,
    result_from_full_dict,
    result_to_full_dict,
)
from repro.faults import FaultPlan, HostCrash, RecoverySpec
from tests.experiments import hash_oracle

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)

#: A worker host crashes mid-run and the barriers proceed without it, so
#: iterations carry different numbers of wait samples.
PROCEED = FaultPlan(
    faults=(HostCrash(host="h02", at=0.3, recover_after=0.4),),
    recovery=RecoverySpec(barrier_mode="proceed", barrier_timeout=0.3,
                          barrier_grace=1),
)

CASES = [
    pytest.param(Scenario(config=MICRO), id="ps-fifo"),
    pytest.param(Scenario(config=MICRO.replace(policy=Policy.TLS_RR)), id="ps-tls-rr"),
    pytest.param(Scenario(config=MICRO.replace(architecture=Architecture.ALLREDUCE)),
                 id="allreduce"),
    pytest.param(Scenario(config=MICRO, faults=PROCEED), id="faults-proceed"),
    pytest.param(Scenario(config=MICRO.replace(sample_hosts=True, sample_interval=0.02)),
                 id="sample-hosts"),
]


@pytest.fixture(scope="module", params=CASES)
def result(request):
    return execute_scenario(request.param)


def test_hash_equals_frozen_oracle(result):
    assert result_content_hash(result) == hash_oracle.result_content_hash(result)


def test_cache_round_trip_keeps_the_hash(result):
    back = result_from_full_dict(
        unseal_entry(seal_entry(result_to_full_dict(result))), result.config)
    assert result_content_hash(back) == hash_oracle.result_content_hash(result)
    assert back.wall_seconds == result.wall_seconds
    assert back.tc_reconfigurations == result.tc_reconfigurations


def test_cases_cover_the_sample_shapes():
    """Guard the case list itself: the proceed run really has uneven
    barriers, and the sampled run really has host series."""
    proceed = execute_scenario(CASES[3].values[0])
    counts = {len(w) for m in proceed.metrics.values()
              for w in m.barriers._waits.values()}
    assert len(counts) > 1
    sampled = execute_scenario(CASES[4].values[0])
    assert sampled.samplers
    assert all(len(s.cpu) > 0 for s in sampled.samplers.values())
