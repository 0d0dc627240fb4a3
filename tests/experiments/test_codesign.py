"""Placement-policy plumbing and the co-design study.

The load-bearing invariant: ``placement_policy="oblivious"`` (the default
and the explicit spelling alike) is byte-identical to the pre-placement
pipeline — same scenario content keys, same pinned result content hashes
— while any other policy enters the content key and changes execution.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import Campaign, ResultCache
from repro.experiments.config import Architecture, ExperimentConfig, Policy
from repro.experiments.export import result_content_hash
from repro.experiments.figures import codesign
from repro.experiments.runtime import execute_scenario
from repro.experiments.scenario import (
    Scenario,
    config_from_dict,
    config_to_dict,
    scenario_from_dict,
)

#: The fig1-fifo pinned hash from test_determinism_hashes.GOLDEN — the
#: pre-placement-subsystem pipeline.
FIG1_FIFO_HASH = (
    "49f5e3d75035eac61f827d5e1f81a835e35320c4c0043916e6c684ac6afffb8f"
)


# -------------------------------------------------- oblivious byte-identity


def test_explicit_oblivious_matches_pre_placement_pinned_hash():
    cfg = ExperimentConfig.tiny(placement_policy="oblivious")
    res = execute_scenario(Scenario(config=cfg))
    assert result_content_hash(res) == FIG1_FIFO_HASH


def test_oblivious_scenario_key_is_unchanged_by_the_new_field():
    default = Scenario(config=ExperimentConfig.tiny())
    explicit = Scenario(
        config=ExperimentConfig.tiny(placement_policy="oblivious")
    )
    assert default.key() == explicit.key()
    # ... and the serialized config carries no placement_policy entry
    assert "placement_policy" not in config_to_dict(default.config)


def test_smart_policy_enters_the_content_key():
    base = Scenario(config=ExperimentConfig.tiny())
    smart = Scenario(
        config=ExperimentConfig.tiny(placement_policy="least-contended")
    )
    assert base.key() != smart.key()
    d = config_to_dict(smart.config)
    assert d["placement_policy"] == "least-contended"
    assert config_from_dict(d) == smart.config
    # the scenario round-trips through its dict form, key intact
    assert scenario_from_dict(smart.to_dict()).key() == smart.key()


# ------------------------------------------------------------- config guards


def test_unknown_placement_policy_is_rejected_at_config_time():
    with pytest.raises(ConfigError):
        ExperimentConfig.tiny(placement_policy="nope")


def test_non_ps_architectures_reject_smart_placement():
    with pytest.raises(ConfigError):
        ExperimentConfig.tiny(architecture=Architecture.ALLREDUCE,
                              placement_policy="least-contended")


def test_placement_override_rejects_smart_placement():
    cfg = ExperimentConfig.tiny(placement_policy="greedy-pack")
    with pytest.raises(ConfigError):
        Scenario(config=cfg, placement=cfg.placement())


# --------------------------------------------------------- policy execution


def test_smart_placement_changes_ps_hosts_and_results():
    # tiny defaults to placement #1: all PSes on one host under
    # oblivious; least-contended spreads them.
    oblivious = execute_scenario(Scenario(config=ExperimentConfig.tiny()))
    smart = execute_scenario(Scenario(
        config=ExperimentConfig.tiny(placement_policy="least-contended")
    ))
    assert len(set(oblivious.ps_host_of_job.values())) == 1
    assert len(set(smart.ps_host_of_job.values())) == 4
    assert result_content_hash(smart) != result_content_hash(oblivious)


def test_greedy_pack_reproduces_placement_one():
    packed = execute_scenario(Scenario(
        config=ExperimentConfig.tiny(placement_policy="greedy-pack")
    ))
    assert set(packed.ps_host_of_job.values()) == {packed.host_ids[0]}


def test_smart_placement_is_deterministic():
    cfg = ExperimentConfig.tiny(placement_policy="phase-interleave")
    a = execute_scenario(Scenario(config=cfg))
    b = execute_scenario(Scenario(config=cfg))
    assert result_content_hash(a) == result_content_hash(b)


# ------------------------------------------------------------------ the study


def test_codesign_quick_study_runs_as_one_cached_campaign(tmp_path, monkeypatch):
    from repro.placement import store

    profiled = []
    profile = store.profile_job_shape

    def counting_profile(config):
        profiled.append(config)
        return profile(config)

    monkeypatch.setattr(store, "profile_job_shape", counting_profile)
    monkeypatch.setattr(store.FingerprintStore, "_default", None)
    campaign = Campaign(cache=ResultCache(tmp_path))
    report = codesign.generate(quick=True, campaign=campaign)
    cells = len(report.placements) * len(report.policies)
    assert report.executed == cells * len(report.seeds)
    assert report.cache_hits == 0
    # every (placement, policy) cell has one result per seed
    for key, results in report.cells.items():
        assert len(results) == len(report.seeds), key
    # oblivious-FIFO is the unit baseline
    ci = report.speedup("oblivious", Policy.FIFO)
    assert ci.estimate == pytest.approx(1.0)
    assert 0.0 < report.fairness("oblivious", Policy.FIFO) <= 1.0
    # one job shape in the quick matrix: one profiling run in this process
    assert len(profiled) == 1
    # a second generate over the same cache re-executes nothing
    warm = codesign.generate(
        quick=True, campaign=Campaign(cache=ResultCache(tmp_path))
    )
    assert warm.executed == 0
    assert warm.cache_hits == report.executed
    assert warm.combined_speedup() == pytest.approx(report.combined_speedup())


class _Submitted(Exception):
    """Raised by :class:`_RecordingCampaign` once it has the scenarios."""


class _RecordingCampaign(Campaign):
    """Records the submitted scenario list instead of running it."""

    def run(self, scenarios, **kwargs):
        self.submitted = list(scenarios)
        raise _Submitted


def _submitted(**kwargs):
    campaign = _RecordingCampaign()
    with pytest.raises(_Submitted):
        codesign.generate(campaign=campaign, **kwargs)
    return campaign.submitted


def _nested_loop_oracle(cfg, placements, policies, seeds):
    """The matrix as three explicit loops: seed, then placement, then policy."""
    cells = []
    for seed in seeds:
        for placement in placements:
            for policy in policies:
                cells.append((seed, placement, policy, Scenario(
                    config=cfg.replace(seed=seed, placement_policy=placement,
                                       policy=policy)
                )))
    return cells


@pytest.mark.parametrize("quick, n_cells", [(True, 12), (False, 27)])
def test_codesign_submits_the_nested_loop_matrix(quick, n_cells):
    six = ExperimentConfig.tiny(n_jobs=6, n_workers=4, iterations=6)
    submitted = _submitted(quick=True) if quick else _submitted(base=six)
    oracle = _nested_loop_oracle(
        six.replace(placement_index=1),
        codesign.QUICK_PLACEMENTS if quick else codesign.DEFAULT_PLACEMENTS,
        codesign.DEFAULT_POLICIES,
        (42, 43) if quick else (42, 43, 44),
    )
    assert len(submitted) == len(oracle) == n_cells
    assert [s.key() for s in submitted] == [o.key() for *_, o in oracle]
    for scenario, (seed, placement, policy, _) in zip(submitted, oracle):
        assert scenario.tag("study") == "codesign"
        assert scenario.tag("placement_policy") == placement
        assert scenario.tag("policy") == policy.value
        assert scenario.tag("seed") == str(seed)


def test_codesign_validates_its_axes():
    with pytest.raises(ConfigError):
        codesign.generate(quick=True, placements=("oblivious",))
    with pytest.raises(ConfigError):
        codesign.generate(quick=True, placements=("least-contended",
                                                  "phase-interleave"))
    with pytest.raises(ConfigError):
        codesign.generate(quick=True, policies=(Policy.FIFO,))
    with pytest.raises(ConfigError):
        codesign.generate(quick=True, seeds=(42,))


def test_codesign_render_and_csv_agree():
    report = codesign.generate(quick=True, seeds=(1, 2))
    text = report.render()
    csv = report.to_csv()
    assert "direction" in text
    header = csv.splitlines()[0]
    assert header.startswith("Placement,Policy,")
    # one CSV row per cell plus the header
    cells = len(report.placements) * len(report.policies)
    assert len(csv.splitlines()) == cells + 1
