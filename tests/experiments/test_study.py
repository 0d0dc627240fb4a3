"""Tests for the declarative study engine: registry, grids, impact."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments import Campaign, ExperimentConfig, Policy
from repro.experiments.study import (
    Axis,
    Component,
    StudySpec,
    all_components,
    get_component,
    run_study,
)
from repro.experiments.study.spec import merge_hooks

TINY = ExperimentConfig.tiny()


# -- component registry -------------------------------------------------------


def test_registry_has_the_paper_mechanisms():
    names = set(all_components())
    assert {"bands", "rotation", "window_jitter", "slow_start",
            "htb_borrowing", "adaptive", "rate_control"} <= names


def test_get_component_unknown_name():
    with pytest.raises(ConfigError, match="unknown component"):
        get_component("flux_capacitor")


def test_component_must_drive_exactly_one_target():
    with pytest.raises(ConfigError, match="exactly one"):
        Component(name="x", description="d", field="max_bands",
                  hook="slow_start", hook_param="enabled",
                  values=(1, 2), default=1, ablated=2)
    with pytest.raises(ConfigError, match="exactly one"):
        Component(name="x", description="d", values=(1, 2),
                  default=1, ablated=2)


def test_component_ablated_must_differ_from_default():
    with pytest.raises(ConfigError, match="must differ"):
        Component(name="x", description="d", hook="slow_start",
                  hook_param="enabled", values=(False, True),
                  default=False, ablated=False)


def test_field_component_takes_its_default_from_the_base():
    with pytest.raises(ConfigError, match="takes none"):
        Component(name="x", description="d", field="max_bands",
                  values=(1, 2), default=1, ablated=2)
    for component in all_components().values():
        assert component.field is None or component.default is None


def test_field_component_apply_rewrites_config():
    from repro.experiments.scenario import Scenario

    scn = get_component("bands").apply(Scenario(config=TINY), 3)
    assert scn.config.max_bands == 3
    assert scn.hooks == ()


def test_hook_component_apply_at_default_is_identity():
    from repro.experiments.scenario import Scenario

    base = Scenario(config=TINY)
    slow = get_component("slow_start")
    assert slow.apply(base, slow.default) is base
    hooked = slow.apply(base, True)
    assert hooked.hooks == (("slow_start", (("enabled", True),)),)


def test_rate_control_component_forces_its_config_overrides():
    from repro.experiments.scenario import Scenario

    rc = get_component("rate_control")
    scn = rc.apply(Scenario(config=TINY.replace(policy=Policy.TLS_RR)), 0.8)
    assert scn.config.policy == Policy.FIFO
    assert scn.config.switch_buffer_bytes is None
    assert scn.hooks == (("rate_control", (("accuracy", 0.8),)),)


# -- grid expansion -----------------------------------------------------------


def _axes():
    return (get_component("bands").axis((1, 6)),
            Axis(name="policy", values=(Policy.FIFO, Policy.TLS_ONE)))


def test_grid_expansion_is_deterministic():
    spec = StudySpec(name="s", base=TINY, axes=_axes())
    assert spec.keys() == spec.keys()
    assert spec.size() == 4
    # three components' full grids over three seeds: every point distinct
    wide = StudySpec(name="wide", base=TINY, seeds=(1, 2, 3), axes=tuple(
        get_component(name).axis() for name in ("bands", "rotation", "window_jitter")))
    assert len(set(wide.keys())) == len(wide.keys()) == 5 * 4 * 3 * 3


def test_same_spec_same_keys_across_instances():
    a = StudySpec(name="s", base=TINY, axes=_axes())
    b = StudySpec(name="s", base=TINY, axes=_axes())
    assert a.keys() == b.keys()


def test_axis_order_permutes_list_but_not_key_set():
    fwd = StudySpec(name="s", base=TINY, axes=_axes())
    rev = StudySpec(name="s", base=TINY, axes=tuple(reversed(_axes())))
    assert fwd.keys() != rev.keys()  # order differs...
    assert set(fwd.keys()) == set(rev.keys())  # ...content does not


def test_hook_axis_order_independence():
    # Both components drive the tl_controller hook; merged+sorted params
    # must make the content keys independent of axis declaration order.
    axes = (get_component("htb_borrowing").axis(),
            get_component("adaptive").axis())
    fwd = StudySpec(name="s", base=TINY, axes=axes)
    rev = StudySpec(name="s", base=TINY, axes=tuple(reversed(axes)))
    assert set(fwd.keys()) == set(rev.keys())
    # The non-default/non-default corner carries one merged hook.
    corner = [p for p in fwd.expand()
              if dict(p.overrides) == {"htb_borrowing": False,
                                       "adaptive": "adaptive"}]
    [point] = corner
    [(hook, params)] = point.scenario.hooks
    assert hook == "tl_controller"
    assert dict(params) == {"variant": "adaptive", "work_conserving": False}


def test_oat_design_size_and_baseline():
    spec = StudySpec(
        name="s",
        base=TINY,
        axes=(get_component("bands").axis((1, 6)),
              get_component("window_jitter").axis()),
        design="oat",
        baseline=TINY.replace(policy=Policy.FIFO),
    )
    # per seed: 1 baseline + the base + 2 (bands) + 3 (window_jitter);
    # 6 bands and 0.5 jitter equal the base's and still get a point.
    points = spec.expand()
    assert len(points) == 7
    assert points[0].is_baseline
    assert ("variant", "baseline") in points[0].scenario.tags
    assert points[1].overrides == () and points[1].scenario.config == TINY
    assert [p.overrides for p in points[2:]] == [
        (("bands", 1),), (("bands", 6),), (("window_jitter", 0.0),),
        (("window_jitter", 0.25),), (("window_jitter", 0.5),),
    ]


def test_oat_is_centred_on_the_base():
    # tiny() rotates every 1.0 s where ExperimentConfig() uses 1.5 s:
    # the base, not a component default, is the centre.
    spec = StudySpec(
        name="s", base=TINY, design="oat",
        axes=(get_component("rotation").axis((3.0,)),
              get_component("bands").axis((1,))),
    )
    centre, rotated, banded = spec.expand()
    assert centre.scenario.config.tls_interval == 1.0
    assert rotated.scenario.config.tls_interval == 3.0
    assert banded.scenario.config.tls_interval == 1.0
    assert banded.scenario.config.max_bands == 1
    assert dict(banded.scenario.tags).keys() == {"study", "bands", "seed"}


def test_hook_override_against_another_axis_raises_in_every_order():
    # rate_control forces policy=fifo; a policy axis asking for tls-one
    # at the same point contradicts it, whichever axis comes first.
    axes = (get_component("rate_control").axis((1.0,)),
            Axis("policy", (Policy.TLS_ONE,)))
    for order in (axes, axes[::-1]):
        with pytest.raises(ConfigError) as info:
            StudySpec(name="s", base=TINY, axes=order).expand()
        assert "'rate_control'" in str(info.value)
        assert "'policy'" in str(info.value)


def test_spec_rejects_duplicate_values_and_seeds():
    with pytest.raises(ConfigError, match="repeats a value"):
        StudySpec(name="s", base=TINY,
                  axes=(Axis("placement_policy", ("oblivious", "oblivious")),))
    with pytest.raises(ConfigError, match="duplicate seeds"):
        StudySpec(name="s", base=TINY, axes=_axes(), seeds=(7, 7, 8))


_POOL = {
    "policy": Axis("policy", (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)),
    "switch_buffer_bytes": Axis("switch_buffer_bytes", (1e6, 4e6, None)),
    "rto": Axis("rto", (0.02, 0.2)),
    "n_ps": Axis("n_ps", (1, 2)),
    **{name: get_component(name).axis()
       for name in ("rate_control", "switch_buffer", "multi_ps", "bands",
                    "htb_borrowing", "adaptive", "slow_start")},
}


@st.composite
def _specs(draw):
    names = draw(st.lists(st.sampled_from(sorted(_POOL)), min_size=2,
                          max_size=4, unique=True))
    axes = tuple(
        Axis(name, tuple(draw(st.lists(st.sampled_from(_POOL[name].values),
                                       min_size=1, max_size=2, unique=True))),
             _POOL[name].component)
        for name in names
    )
    return axes, draw(st.sampled_from(("grid", "oat")))


def _outcome(axes, design):
    try:
        points = StudySpec(name="s", base=TINY, axes=axes, design=design,
                           baseline=TINY).expand()
    except ConfigError:
        return "raises"
    by_name = {axis.name: axis for axis in axes}
    for point in points:  # every tag says what the point runs
        for name, value in point.overrides:
            for field, written in by_name[name].fields(value).items():
                assert getattr(point.scenario.config, field) == written
    return frozenset(point.scenario.key() for point in points)


@settings(deadline=None)
@given(_specs())
def test_axis_order_never_changes_what_runs(spec):
    axes, design = spec
    outcomes = {_outcome(order, design)
                for order in itertools.permutations(axes)}
    assert len(outcomes) == 1


def test_seed_sweep_replicates_and_tags():
    spec = StudySpec(name="s", base=TINY, axes=_axes(), seeds=(7, 8))
    points = spec.expand()
    assert len(points) == 8
    seeds = {dict(p.scenario.tags)["seed"] for p in points}
    assert seeds == {"7", "8"}
    assert {p.scenario.config.seed for p in points} == {7, 8}


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="at least one axis"):
        StudySpec(name="s", base=TINY, axes=())
    with pytest.raises(ConfigError, match="design"):
        StudySpec(name="s", base=TINY, axes=_axes(), design="fancy")
    with pytest.raises(ConfigError, match="duplicate"):
        StudySpec(name="s", base=TINY,
                  axes=(Axis(name="policy", values=(Policy.FIFO,)),
                        Axis(name="policy", values=(Policy.TLS_ONE,))))
    with pytest.raises(ConfigError, match="unknown config field"):
        StudySpec(name="s", base=TINY,
                  axes=(Axis(name="not_a_field", values=(1,)),))
    with pytest.raises(ConfigError, match="has no values"):
        Axis(name="policy", values=())


def test_merge_hooks_unions_and_sorts():
    merged = merge_hooks((
        ("b_hook", (("x", 1),)),
        ("a_hook", (("z", 3), ("a", 2))),
        ("b_hook", (("y", 2), ("x", 1))),
    ))
    assert merged == (
        ("a_hook", (("a", 2), ("z", 3))),
        ("b_hook", (("x", 1), ("y", 2))),
    )


def test_merge_hooks_conflict_raises():
    with pytest.raises(ConfigError, match="conflicting"):
        merge_hooks((("h", (("p", 1),)), ("h", (("p", 2),))))


# -- the impact study ---------------------------------------------------------


def test_run_study_needs_two_seeds():
    with pytest.raises(ConfigError, match=">= 2 seeds"):
        run_study(TINY, components=("bands",), seeds=(42,))


def test_run_study_needs_a_component():
    with pytest.raises(ConfigError, match="at least one component"):
        run_study(TINY, components=(), seeds=(42, 43))


def test_run_study_ranked_impacts_and_tables():
    report = run_study(
        TINY,
        components=("bands", "slow_start"),
        seeds=(42, 43),
        campaign=Campaign(),
    )
    assert {i.component for i in report.impacts} == {"bands", "slow_start"}
    ranked = report.ranked()
    assert ranked == sorted(ranked, key=lambda i: i.magnitude, reverse=True)
    for impact in report.impacts:
        ci = impact.jct_vs_default
        assert ci.low <= ci.estimate <= ci.high
    text = report.render()
    assert "Component impact, ranked" in text
    assert "bands *" in text  # tl_only marker
    # One shared table path: the CSV carries the same header and rows.
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0].startswith("Component,Knockout,Avg JCT")
    assert len(csv_lines) == 1 + 1 + len(report.impacts)


def test_run_study_is_one_campaign_submission():
    events = []
    camp = Campaign(progress=lambda e: events.append(e))
    run_study(TINY, components=("bands",), seeds=(42, 43), campaign=camp)
    # 2 seeds x (fifo + tls-default + 1 knockout) = 6 scenarios, one batch.
    assert {e.total for e in events} == {6}
