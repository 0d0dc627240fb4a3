"""The stable surface: repro.api exports, and the removed shims stay gone."""

import importlib
import inspect

import pytest

import repro.api as api
import repro.experiments
from repro.experiments.config import ExperimentConfig


def test_every_name_in_all_resolves():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert missing == []


def test_all_is_sorted_and_unique():
    assert list(api.__all__) == sorted(set(api.__all__))


def test_no_private_names_exported():
    assert not any(name.startswith("_") for name in api.__all__)


def test_facade_covers_the_experiment_pipeline():
    # The names the docs/examples rely on; removing any is a breaking
    # change gated by the deprecation policy in docs/api.md.
    for name in (
        "Scenario",
        "ExperimentConfig",
        "materialize",
        "Runtime",
        "Campaign",
        "SerialExecutor",
        "ParallelExecutor",
        "ResultCache",
        "FaultPlan",
        "WorkloadSpec",
        "Architecture",
        "Policy",
        "ExperimentResult",
        "execute_scenario",
        "scenario_grid",
        "MetricsRegistry",
        "ActiveWindow",
        "window_mean",
        "scrape_cluster",
    ):
        assert name in api.__all__, name


def test_facade_names_are_the_canonical_objects():
    """Re-exports, not copies: identity with the defining modules."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.runtime import Runtime, execute_scenario
    from repro.experiments.scenario import Scenario

    assert api.Campaign is Campaign
    assert api.Runtime is Runtime
    assert api.Scenario is Scenario
    assert api.execute_scenario is execute_scenario


def test_facade_classes_have_docstrings():
    for name in api.__all__:
        obj = getattr(api, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name} has no docstring"


@pytest.mark.parametrize("module", ["repro.experiments.runner",
                                    "repro.experiments.ablations"])
def test_removed_shim_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_removed_names_are_gone():
    assert not hasattr(repro, "run_experiment")
    assert not hasattr(repro.experiments, "run_experiment")
    with pytest.raises(TypeError):
        api.materialize(api.Scenario(config=ExperimentConfig.tiny()),
                        fast_path=False)


def test_materialize_trace_kinds_keyword_is_removed():
    """``trace_kinds`` was removed in 1.7.0 (docs/api.md); the delivery
    tap replaces it."""
    with pytest.raises(TypeError):
        api.materialize(api.Scenario(config=ExperimentConfig.tiny()),
                        trace_kinds={"msg_recv"})
