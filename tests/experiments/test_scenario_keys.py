"""Scenario content keys: pinned values, the per-object memo, and the
flat ``config_to_dict`` checked against the ``dataclasses.asdict`` form.

A key is the on-disk address of a cached result, so a key that moves
silently orphans every cache entry a user has.
"""

import dataclasses
import hashlib
import itertools
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.placement import PlacementSpec
from repro.experiments import ExperimentConfig, Policy, Scenario
from repro.experiments.config import Architecture
from repro.experiments.scenario import config_to_dict, scenario_from_dict
from repro.faults.plan import FaultPlan, PSCrash, RecoverySpec
from repro.placement.policies import all_placement_policies

#: Keys captured before the memo and the flat ``config_to_dict`` existed.
PINNED_KEYS = {
    "tiny": (
        Scenario(ExperimentConfig.tiny()),
        "e66f1f02ac02ad4b3ac2de774afff7dd13165e99719af88b016d941df953bd4a",
    ),
    "fig2-tls-one": (
        Scenario(ExperimentConfig(placement_index=1, policy=Policy.TLS_ONE)),
        "3dccaa8be3f77a6c2375c34cba05e439c4e65a39819cd3e6bcc72e204a0d9ea5",
    ),
    "faults-packet": (
        Scenario(
            ExperimentConfig(placement_index=1, policy=Policy.TLS_ONE,
                             netem_loss=0.01, switch_buffer_bytes=None),
            faults=FaultPlan(
                (PSCrash(job="job00", at=0.5, recover_after=0.5),),
                recovery=RecoverySpec(barrier_mode="proceed"),
            ),
        ),
        "b264f8ed1dee45e3b2bf5ed8498a9b61d3024687ebaa26db5479d188fe357347",
    ),
    "override-hook-tags": (
        Scenario(
            ExperimentConfig.tiny(policy=Policy.TLS_RR),
            placement=PlacementSpec((2, 2)),
        ).with_hook("tl_controller", variant="adaptive", check_interval=0.25)
        .with_tags(study="pin", row=3),
        "d3b1d97abace293cad865c43e8d5ecadac9beb0501945c355c981fee0c18ac5a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_pinned_scenario_keys(name):
    scenario, expected = PINNED_KEYS[name]
    assert scenario.key() == expected
    # A rebuilt object (no memo yet) derives the same key.
    assert scenario_from_dict(scenario.to_dict()).key() == expected


# -- the per-object key memo ----------------------------------------------

def _pair():
    config = ExperimentConfig.tiny(policy=Policy.TLS_ONE)
    return Scenario(config).with_tags(x=1), Scenario(config).with_tags(x=1)


def test_memo_leaves_eq_hash_and_repr_alone():
    keyed, plain = _pair()
    keyed.key()
    assert "_key" in vars(keyed) and "_key" not in vars(plain)
    assert keyed == plain
    assert hash(keyed) == hash(plain)
    assert repr(keyed) == repr(plain)
    assert "_key" not in {f.name for f in dataclasses.fields(Scenario)}


def test_memo_does_not_shadow_the_key_method():
    keyed, _ = _pair()
    first = keyed.key()
    assert "key" not in vars(keyed)
    assert keyed.key() == first


def test_memo_survives_pickle_round_trip():
    keyed, plain = _pair()
    expected = plain.key()
    for scenario in (keyed, Scenario(plain.config)):
        back = pickle.loads(pickle.dumps(scenario))
        assert back == scenario
        assert back.key() == expected


def test_replace_derives_a_fresh_key():
    keyed, _ = _pair()
    old = keyed.key()
    moved = dataclasses.replace(keyed, config=keyed.config.replace(seed=7))
    assert "_key" not in vars(moved)
    assert moved.key() != old
    assert moved.key() == Scenario(keyed.config.replace(seed=7)).key()
    rebuilt = Scenario(keyed.config.replace(policy=Policy.FIFO))
    assert rebuilt.key() == Scenario(ExperimentConfig.tiny()).key()
    # Tags stay out of the key; hooks go in.
    assert keyed.with_tags(y=2).key() == old
    assert keyed.with_hook("slow_start", enabled=False).key() != old


# -- config_to_dict against the asdict oracle ---------------------------------

def _asdict_config_to_dict(config):
    """``config_to_dict`` as it was, built on ``dataclasses.asdict``."""
    out = dataclasses.asdict(config)
    out["policy"] = config.policy.value
    out["architecture"] = Architecture(config.architecture).value
    if out.get("placement_policy") == "oblivious":
        del out["placement_policy"]
    return out


def _asdict_key(scenario):
    """``Scenario.key()`` with the config serialized by the oracle."""
    payload = scenario.to_dict()
    del payload["tags"]
    payload["config"] = _asdict_config_to_dict(scenario.config)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _assert_same_as_oracle(config):
    new, old = config_to_dict(config), _asdict_config_to_dict(config)
    assert new == old
    assert list(new) == list(old)
    assert [type(v) for v in new.values()] == [type(v) for v in old.values()]
    assert Scenario(config).key() == _asdict_key(Scenario(config))


def _valid_combinations():
    for arch, policy in itertools.product(Architecture, Policy):
        if arch != Architecture.PS and policy == Policy.DRR:
            continue
        placement_policies = (
            all_placement_policies() if arch == Architecture.PS
            else ["oblivious"]
        )
        for placement_policy in placement_policies:
            yield arch, policy, placement_policy


@st.composite
def configs(draw):
    arch, policy, placement_policy = draw(
        st.sampled_from(list(_valid_combinations()))
    )
    ps = arch == Architecture.PS
    segment = draw(st.sampled_from([64 * 1024, 256 * 1024]))
    return ExperimentConfig(
        n_jobs=draw(st.integers(1, 21)),
        n_workers=draw(st.integers(2, 20)),
        model_compute_factor=draw(st.floats(0.1, 4.0)),
        iterations=draw(st.integers(1, 1500)),
        launch_stagger=draw(st.sampled_from([0.0, 0.01, 0.1])),
        sync=draw(st.booleans()) if ps else True,
        n_ps=draw(st.integers(1, 3)) if ps else 1,
        compression_ratio=draw(st.floats(0.01, 1.0)),
        architecture=arch,
        allreduce_fraction=draw(st.floats(0.05, 1.0)),
        allreduce_channels=draw(st.integers(1, 4)),
        placement_index=draw(st.integers(1, 8)),
        placement_policy=placement_policy,
        link_gbps=draw(st.sampled_from([1, 1.0, 10.0, 40.0])),
        segment_bytes=segment,
        switch_buffer_bytes=draw(st.one_of(
            st.none(), st.floats(segment, 1e8), st.integers(segment, 10**8),
        )),
        netem_loss=draw(st.floats(0.0, 0.5)) if ps else 0.0,
        netem_jitter=draw(st.sampled_from([0.0, 1e-4])),
        policy=policy,
        tls_interval=draw(st.floats(0.1, 20.0)),
        seed=draw(st.integers(0, 2**32)),
        sample_hosts=draw(st.booleans()),
    )


@given(configs())
def test_config_to_dict_matches_asdict_oracle(config):
    _assert_same_as_oracle(config)


def test_config_to_dict_matches_oracle_on_every_combination():
    for arch, policy, placement_policy in _valid_combinations():
        for buffer in (None, 4e6):
            _assert_same_as_oracle(ExperimentConfig.tiny(
                architecture=arch, policy=policy,
                placement_policy=placement_policy,
                switch_buffer_bytes=buffer,
            ))

