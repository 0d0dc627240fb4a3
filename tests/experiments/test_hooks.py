"""Tests for declarative build hooks: registry, keys, cache, controllers."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ParallelExecutor,
    Policy,
    ResultCache,
    Scenario,
)
from repro.experiments.hooks import get_build_hook
from repro.experiments.runtime import materialize
from repro.experiments.scenario import scenario_from_dict

TINY = ExperimentConfig.tiny()


# -- registry and scenario plumbing -------------------------------------------


def test_builtin_hooks_registered():
    for name in ("tl_controller", "rate_control", "slow_start", "noisy_neighbors"):
        assert get_build_hook(name).name == name


def test_unknown_hook_name_raises():
    with pytest.raises(ConfigError, match="unknown build hook"):
        get_build_hook("quantum_tunnel")


def test_unknown_hook_fails_at_materialize():
    scn = Scenario(config=TINY).with_hook("quantum_tunnel")
    with pytest.raises(ConfigError, match="unknown build hook"):
        materialize(scn)


def test_hook_params_must_be_json_scalars():
    with pytest.raises(ConfigError, match="scalar"):
        Scenario(config=TINY).with_hook("slow_start", enabled=[1, 2])


def test_hooks_enter_the_content_key():
    plain = Scenario(config=TINY)
    hooked = plain.with_hook("slow_start", enabled=True)
    other = plain.with_hook("slow_start", enabled=False)
    assert len({plain.key(), hooked.key(), other.key()}) == 3


def test_hook_param_order_does_not_change_the_key():
    a = Scenario(config=TINY).with_hook("tl_controller", variant="static",
                                        work_conserving=False)
    b = Scenario(config=TINY).with_hook("tl_controller",
                                        work_conserving=False,
                                        variant="static")
    assert a.key() == b.key()


def test_hooked_scenario_dict_round_trip():
    scn = Scenario(config=TINY).with_hook(
        "tl_controller", variant="adaptive", check_interval=0.25
    ).with_tags(study="s")
    back = scenario_from_dict(scn.to_dict())
    assert back == scn
    assert back.key() == scn.key()


def test_two_controller_hooks_conflict():
    scn = (Scenario(config=TINY).with_hook("tl_controller", variant="static")
           .with_hook("tl_controller", variant="adaptive"))
    with pytest.raises(ConfigError, match="already set"):
        materialize(scn)


# -- hook behavior ------------------------------------------------------------


def test_slow_start_hook_flips_every_transport():
    plain = materialize(Scenario(config=TINY))
    hooked = materialize(
        Scenario(config=TINY).with_hook("slow_start", enabled=True)
    )
    for rt, expected in ((plain, False), (hooked, True)):
        flags = {rt.cluster.host(h).transport.slow_start
                 for h in rt.cluster.host_ids}
        assert flags == {expected}


def test_noisy_neighbors_hook_slows_the_jobs_and_stops():
    """The antagonists load the cluster, stop once the jobs end (the run
    drains), and the result does not depend on how many ran before."""
    from repro.experiments.export import result_content_hash
    from repro.experiments.runtime import execute_scenario

    noisy = Scenario(config=TINY).with_hook("noisy_neighbors")
    clean = execute_scenario(Scenario(config=TINY))
    first, again = execute_scenario(noisy), execute_scenario(noisy)
    assert first.avg_jct > clean.avg_jct
    assert result_content_hash(first) == result_content_hash(again)


def test_tl_controller_variant_validation():
    scn = Scenario(config=TINY).with_hook("tl_controller", variant="magic")
    with pytest.raises(ConfigError, match="variant"):
        materialize(scn)


def test_rate_control_accuracy_validation():
    scn = Scenario(config=TINY).with_hook("rate_control", accuracy=0.0)
    with pytest.raises(ConfigError, match="accuracy"):
        materialize(scn)


def test_tl_controller_mode_derives_from_policy():
    from repro.tensorlights import TLMode

    for policy, mode in ((Policy.FIFO, TLMode.ONE),
                         (Policy.TLS_RR, TLMode.RR)):
        rt = materialize(
            Scenario(config=TINY.replace(policy=policy))
            .with_hook("tl_controller", variant="static")
        )
        assert rt.controller is not None
        assert rt.controller.mode == mode


def test_tc_reconfigurations_surface_in_results():
    fifo = Campaign().run_one(Scenario(config=TINY))
    static = Campaign().run_one(
        Scenario(config=TINY).with_hook("tl_controller", variant="static")
    )
    assert fifo.tc_reconfigurations == 0
    assert static.tc_reconfigurations > 0


def test_work_conserving_flag_reaches_the_controller():
    rt = materialize(
        Scenario(config=TINY.replace(policy=Policy.TLS_ONE))
        .with_hook("tl_controller", variant="static", work_conserving=False)
    )
    assert rt.controller is not None
    assert rt.controller.work_conserving is False


def test_work_conserving_knockout_renders_hard_caps():
    from repro.tensorlights.tc import Tc

    rt = materialize(Scenario(config=TINY))
    nic = rt.cluster.host(rt.cluster.host_ids[0]).nic
    link_bit = int(nic.rate * 8)
    share_bit = int(nic.rate / 3 * 8)

    tc = Tc(nic)
    tc.install_tensorlights_htb(3, work_conserving=False)
    band_lines = [c for c in tc.render_commands() if "prio" in c]
    assert len(band_lines) == 3
    assert all(f"rate {share_bit}bit ceil {share_bit}bit" in line
               for line in band_lines)

    tc.install_tensorlights_htb(3)  # default: borrowing enabled
    band_lines = [c for c in tc.render_commands() if "prio" in c]
    assert all(f"ceil {link_bit}bit" in line for line in band_lines)


def test_hooked_scenarios_through_parallel_campaign_and_cache(tmp_path):
    scenarios = [
        Scenario(config=TINY).with_hook("tl_controller", variant=v)
        for v in ("static", "adaptive")
    ]
    cache = ResultCache(str(tmp_path / "cache"))
    camp = Campaign(executor=ParallelExecutor(max_workers=2), cache=cache)
    first = camp.run(scenarios)
    assert first.executed == 2 and first.cache_hits == 0
    second = camp.run(scenarios)
    assert second.executed == 0 and second.cache_hits == 2
    for a, b in zip(first.results, second.results):
        assert a.jcts == b.jcts
        assert a.tc_reconfigurations == b.tc_reconfigurations
