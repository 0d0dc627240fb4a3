"""Tests for the declarative Scenario layer (identity, tags, grids)."""

import pytest

from repro.cluster.placement import PlacementSpec
from repro.errors import ConfigError
from repro.experiments import Architecture, ExperimentConfig, Policy, Scenario, scenario_grid
from repro.experiments.scenario import scenario_from_dict

MICRO = ExperimentConfig.tiny(n_jobs=2, n_workers=2, iterations=3)


def test_key_is_stable_and_content_addressed():
    a = Scenario(config=MICRO)
    b = Scenario(config=MICRO)
    assert a.key() == b.key()
    assert len(a.key()) == 64  # sha256 hex


def test_key_changes_with_config():
    a = Scenario(config=MICRO)
    b = Scenario(config=MICRO.replace(seed=MICRO.seed + 1))
    c = Scenario(config=MICRO.replace(policy=Policy.TLS_ONE))
    assert len({a.key(), b.key(), c.key()}) == 3


def test_key_changes_with_placement_override():
    a = Scenario(config=MICRO)
    b = Scenario(config=MICRO, placement=PlacementSpec((2,)))
    assert a.key() != b.key()


def test_tags_do_not_affect_key():
    a = Scenario(config=MICRO)
    b = a.with_tags(figure="5a", row=3)
    assert a.key() == b.key()
    assert b.tag("figure") == "5a"
    assert b.tag("row") == "3"
    assert b.tag("missing", "dflt") == "dflt"


def test_with_tags_last_wins():
    s = Scenario(config=MICRO).with_tags(x="1").with_tags(x="2")
    assert s.tag("x") == "2"


def test_placement_mismatch_rejected():
    with pytest.raises(ConfigError):
        Scenario(config=MICRO, placement=PlacementSpec((1, 1, 1)))


def test_dict_round_trip():
    s = Scenario(
        config=MICRO.replace(policy=Policy.TLS_RR),
        placement=PlacementSpec((2,)),
    ).with_tags(note="rt")
    back = scenario_from_dict(s.to_dict())
    assert back == s
    assert back.key() == s.key()


def test_scenario_grid_cartesian_product():
    grid = scenario_grid(
        MICRO,
        {"placement_index": [1, 8], "policy": [Policy.FIFO, Policy.TLS_ONE]},
    )
    assert len(grid) == 4
    # Every point is tagged with its axis values.
    tags = {(s.tag("placement_index"), s.tag("policy")) for s in grid}
    assert ("1", "fifo") in tags and ("8", "tls-one") in tags
    # All four configs are distinct scenarios.
    assert len({s.key() for s in grid}) == 4


def test_scenario_grid_keys_and_tags_match_the_product_oracle():
    axes = {"placement_index": [1, 8],
            "policy": [Policy.FIFO, Policy.TLS_ONE],
            "seed": [3, 4]}
    grid = scenario_grid(MICRO, axes)
    oracle = [
        {"placement_index": p, "policy": pol, "seed": seed}
        for p in axes["placement_index"]
        for pol in axes["policy"]
        for seed in axes["seed"]
    ]
    assert [s.key() for s in grid] == [
        Scenario(config=MICRO.replace(**point)).key() for point in oracle
    ]
    for scenario, point in zip(grid, oracle):
        assert scenario.tag("placement_index") == str(point["placement_index"])
        assert scenario.tag("policy") == point["policy"].value
        assert scenario.tag("seed") == str(point["seed"])


def test_scenario_grid_rejects_bad_axes():
    with pytest.raises(ConfigError):
        scenario_grid(MICRO, {})
    with pytest.raises(ConfigError):
        scenario_grid(MICRO, {"placement_index": []})
    with pytest.raises(ConfigError):
        scenario_grid(MICRO, {"not_a_field": [1]})


def test_scenario_grid_validates_each_point_as_a_whole():
    # Switching to all-reduce is only valid together with n_ps=1; applying
    # the axes one at a time would reject the half-applied config.
    [scenario] = scenario_grid(
        MICRO.replace(n_ps=2),
        {"architecture": [Architecture.ALLREDUCE], "n_ps": [1]},
    )
    assert scenario.config == MICRO.replace(architecture=Architecture.ALLREDUCE)
