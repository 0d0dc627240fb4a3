"""The CLI registry: every subcommand is one ``COMMANDS`` entry.

These tests pin what each subcommand offers and check that every config
flag it offers changes the scenarios it submits.  Nothing simulates:
``Campaign.run`` and the figure modules' ``materialize`` are patched to
record the scenario keys and abort.
"""

import argparse
import pkgutil
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.experiments import figures
from repro.experiments.campaign import Campaign, ParallelExecutor
from repro.experiments.config import Policy

DOCS = Path(__file__).resolve().parents[2] / "docs"

STANDARD = {
    "--jobs", "--workers", "--iterations", "--batch", "--seed", "--netem-loss",
    "--netem-delay", "--netem-jitter", "--link-rate", "--switch-buffer", "--paper-scale",
}
CAMPAIGN = {"--parallel", "--cache", "--cache-dir", "--progress", "--scenario-timeout"}

#: Every flag each subcommand offers.  Adding or dropping one is a diff here.
EXPECTED_FLAGS = {
    "table1": set(),
    "fig1": STANDARD - {"--jobs", "--switch-buffer", "--paper-scale"},
    "fig2": STANDARD | CAMPAIGN | {"--placements"},
    "fig3": STANDARD | CAMPAIGN,
    "fig4": STANDARD - {"--jobs", "--switch-buffer"},
    "fig5a": STANDARD | CAMPAIGN | {"--placements"},
    "fig5b": (STANDARD - {"--batch"}) | CAMPAIGN | {"--batches"},
    "fig6": STANDARD | CAMPAIGN,
    "table2": STANDARD | CAMPAIGN | {"--sample-interval"},
    "fct": STANDARD,
    "robustness": (STANDARD - {"--netem-loss"}) | CAMPAIGN | {
        "--losses", "--policies", "--ps-crash", "--crash-at", "--crash-recover",
    },
    "collectives": (STANDARD - {"--netem-loss", "--netem-delay", "--netem-jitter"}) | CAMPAIGN | {
        "--allreduce-fraction", "--channels", "--architectures", "--policies",
    },
    "utilization": STANDARD | CAMPAIGN | {
        "--sample-interval", "--quick", "--watchdog", "--export-metrics",
    },
    "campaign": STANDARD | CAMPAIGN | {
        "--placements", "--policies", "--run-id", "--resume", "--journal-dir",
        "--list-runs", "--max-attempts", "--watchdog", "--metrics", "--hashes",
    },
    "ablate": STANDARD | CAMPAIGN | {"--quick", "--components", "--seeds", "--csv"},
    "codesign": STANDARD | CAMPAIGN | {
        "--quick", "--placement-policies", "--policies", "--seeds", "--csv",
    },
    "run": STANDARD | CAMPAIGN | {
        "--placement", "--placement-policy", "--policy", "--export", "--output",
    },
    "reproduce": {"--iterations", "--seed", "--paper-scale", "--only"} | CAMPAIGN,
}

#: A value for every config flag that differs from every generator default.
#: Every Table I placement must still fit: 8 jobs scale each shape (at most
#: 7 groups), and 24 workers leave a host for each of placement #8's 21 PSes.
CONFIG_VALUES = {
    "--jobs": ["8"], "--workers": ["24"], "--iterations": ["3"], "--batch": ["7"],
    "--seed": ["9"], "--sample-interval": ["0.05"], "--netem-loss": ["0.01"],
    "--netem-delay": ["0.001"], "--netem-jitter": ["0.0005"], "--link-rate": ["1Gbit"],
    "--switch-buffer": ["1MB"], "--paper-scale": [], "--allreduce-fraction": ["0.25"],
    "--channels": ["2"], "--placement": ["2"], "--placement-policy": ["least-contended"],
    "--policy": ["tls-one"],
}


def _offered():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class _Submitted(Exception):
    pass


@pytest.fixture
def submitted(monkeypatch, tmp_path):
    """Run the CLI up to its first submission; return what it submitted."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    seen = []

    def record(campaign, scenarios):
        seen.append((campaign, list(scenarios)))
        raise _Submitted

    monkeypatch.setattr(Campaign, "run", lambda self, scenarios=None: record(self, scenarios))
    for name in figures.__all__:
        module = getattr(figures, name)
        if hasattr(module, "materialize"):
            monkeypatch.setattr(module, "materialize",
                                lambda scenario, **kw: record(None, [scenario]))

    def run(argv):
        seen.clear()
        with pytest.raises(_Submitted):
            main(argv)
        return seen[0]

    return run


def test_every_subcommand_offers_exactly_its_pinned_flags():
    assert _offered() == EXPECTED_FLAGS
    assert set(COMMANDS) == set(EXPECTED_FLAGS)


def test_registry_reaches_every_figure_module():
    modules = {
        name for _, name, _ in pkgutil.iter_modules(figures.__path__)
    } - {"common"}
    reached = {
        command.generate.__module__.rsplit(".", 1)[-1] for command in COMMANDS.values()
    }
    assert modules <= reached
    assert sorted(figures.__all__) == sorted(modules)


def test_api_overview_lists_every_subcommand():
    text = (DOCS / "api-overview.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    for name in COMMANDS:
        assert re.search(rf"\b{name}\b", block), name


CASES = [(name, []) for name, command in COMMANDS.items() if command.config] + [
    (name, ["--quick"]) for name in ("utilization", "ablate", "codesign")
]


@pytest.mark.parametrize("name,base", CASES, ids=[" ".join([n, *b]) for n, b in CASES])
def test_every_config_flag_changes_the_submitted_scenarios(submitted, name, base):
    def keys(extra):
        return [s.key() for s in submitted([name, *base, *extra])[1]]

    plain = keys([])
    ignored = [
        flag for flag in COMMANDS[name].config
        if keys([flag, *CONFIG_VALUES[flag]]) == plain
    ]
    assert not ignored, f"{name} {' '.join(base)} ignores {ignored}"


@pytest.mark.parametrize("name", ["ablate", "codesign"])
def test_quick_studies_sweep_seeds_from_the_seed_flag(submitted, name):
    _, scenarios = submitted([name, "--quick", "--seed", "7", "--iterations", "2"])
    assert sorted({s.config.seed for s in scenarios}) == [7, 8]
    assert {s.config.iterations for s in scenarios} == {2}


def test_utilization_watchdog_applies_without_export(submitted):
    campaign, _ = submitted(["utilization", "--quick", "--watchdog", "warn"])
    assert campaign.watchdog == "warn"
    assert not campaign.observe_metrics


def test_utilization_export_observes_through_the_flag_campaign(submitted, tmp_path):
    campaign, _ = submitted([
        "utilization", "--quick", "--parallel", "2", "--watchdog", "raise",
        "--export-metrics", str(tmp_path / "m.jsonl"),
    ])
    assert isinstance(campaign.executor, ParallelExecutor)
    assert campaign.observe_metrics and campaign.watchdog == "raise"
    assert campaign.cache is None


@pytest.mark.parametrize("argv,plan_args", [
    (["fig6", "--jobs", "3", "--workers", "2"], dict(n_jobs=3, n_workers=2)),
    (["table2", "--jobs", "3", "--sample-interval", "0.1"],
     dict(n_jobs=3, sample_interval=0.1)),
    (["utilization", "--quick", "--jobs", "3"], dict(quick=True, n_jobs=3)),
    (["fig5b", "--batches", "2", "8", "--jobs", "3"], dict(batch_sizes=[2, 8], n_jobs=3)),
    (["campaign", "--placements", "2", "4", "--policies", "tls-one", "--jobs", "4"],
     dict(placements=[2, 4], policies=[Policy.TLS_ONE], n_jobs=4)),
    (["ablate", "--quick", "--seed", "7", "--components", "rotation", "adaptive"],
     dict(quick=True, seed=7, components=["rotation", "adaptive"])),
    (["codesign", "--quick", "--seeds", "3", "5", "--policies", "fifo", "tls-rr"],
     dict(quick=True, seeds=[3, 5], policies=[Policy.FIFO, Policy.TLS_RR])),
])
def test_plan_builds_the_scenarios_the_command_submits(submitted, argv, plan_args):
    _, scenarios = submitted(argv)
    planned = COMMANDS[argv[0]].plan(**plan_args)
    assert [s.key() for s in planned] == [s.key() for s in scenarios]


@pytest.mark.parametrize("argv,message", [
    (["campaign", "--max-attempts", "0"], "max_attempts must be >= 1"),
    (["fig2", "--scenario-timeout", "0"], "scenario_timeout must be positive"),
    (["run", "--iterations", "0"], "iterations must be >= 1"),
    (["run", "--placement", "9"], "invalid choice: 9"),
    (["utilization", "--cache", "--export-metrics", "m.jsonl"], "--export-metrics"),
    (["fig5b", "--batch", "2"], "unrecognized arguments: --batch"),
    (["fig1", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["campaign", "--resume", "r1", "--placements", "2"], "takes no --placements"),
    (["campaign", "--resume", "r1", "--seed", "3"], "takes no --placements"),
    (["ablate", "--seeds", "7"], "--seeds needs >= 2 seeds"),
    (["codesign", "--seeds", "7"], "--seeds needs >= 2 seeds"),
    # Configs a generator derives, checked before any scenario runs.
    (["fig2", "--jobs", "3", "--workers", "3", "--iterations", "2"],
     "cannot scale placement #5 (4 groups) down to 3 jobs"),
    (["fig2", "--workers", "1", "--jobs", "4", "--iterations", "2"],
     "names host index 2, cluster has 2 hosts"),
    (["collectives", "--workers", "1", "--jobs", "2", "--iterations", "2"],
     "ring all-reduce needs n_workers >= 2"),
    (["fig3", "--workers", "1", "--jobs", "2", "--iterations", "2"],
     "needs n_workers >= 2"),
    (["fig6", "--workers", "1", "--jobs", "2", "--iterations", "2"],
     "needs n_workers >= 2"),
    (["table2", "--jobs", "0"], "n_jobs must be >= 1"),
    (["run", "--jobs", "2", "--batch", "0"], "local_batch_size must be >= 1"),
    (["run", "--jobs", "2", "--workers", "0"], "n_workers must be >= 1"),
    (["run", "--jobs", "2", "--workers", "2", "--iterations", "2",
      "--switch-buffer", "255KiB"], "switch_buffer_bytes must be >= segment_bytes"),
    (["run", "--jobs", "2", "--workers", "2", "--iterations", "2",
      "--switch-buffer", "0"], "switch_buffer_bytes must be >= segment_bytes"),
    (["fig5b", "--batches", "0", "--jobs", "2", "--workers", "2", "--iterations", "2"],
     "local_batch_size must be >= 1"),
    (["campaign", "--placements", "5", "--jobs", "3", "--workers", "3", "--iterations", "2"],
     "cannot scale placement #5 (4 groups) down to 3 jobs"),
    (["utilization", "--quick", "--sample-interval", "0"],
     "sample_interval must be positive"),
    # A repeated axis value or seed would pair a sample with itself.
    (["codesign", "--quick", "--placement-policies", "oblivious", "least-contended",
      "least-contended"], "axis 'placement_policy' repeats a value"),
    (["ablate", "--quick", "--components", "bands", "bands"], "duplicate axis names"),
    (["ablate", "--quick", "--seeds", "7", "7"], "--seeds needs >= 2 seeds"),
    # numpy seeds only from non-negative integers
    (["run", "--jobs", "2", "--workers", "2", "--iterations", "1", "--seed", "-1"],
     "seed must be >= 0"),
    (["fig1", "--seed", "-1"], "seed must be >= 0"),
    (["ablate", "--quick", "--seeds", "-1", "0"], "seed must be >= 0"),
    # The in-process figures and reproduce have a plan too.
    (["fig1", "--workers", "0"], "n_workers must be >= 1"),
    (["fig4", "--workers", "0"], "n_workers must be >= 1"),
    (["fct", "--iterations", "0"], "iterations must be >= 1"),
    (["reproduce", "--iterations", "0"], "iterations must be >= 1"),
    (["reproduce", "--only", "nope"], "invalid choice: 'nope'"),
])
def test_bad_flag_values_are_usage_errors(monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def never(*args, **kwargs):
        raise AssertionError("a scenario ran before the usage error")

    monkeypatch.setattr(Campaign, "run", never)
    for name in figures.__all__:
        module = getattr(figures, name)
        if hasattr(module, "materialize"):
            monkeypatch.setattr(module, "materialize", never)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("usage: tensorlights")
    assert err[-1].startswith("tensorlights") and message in err[-1]
    assert not list(tmp_path.iterdir())  # nothing ran, nothing journaled
