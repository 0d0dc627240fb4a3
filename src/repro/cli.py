"""Command-line interface: regenerate any paper table/figure.

Examples::

    tensorlights table1
    tensorlights fig2 --iterations 30
    tensorlights fig5a --placements 1 4 8 --parallel 4 --progress
    tensorlights fig5b --batches 1 4 16 --cache
    tensorlights table2 --seed 7
    tensorlights collectives --link-rate 1Gbit        # all-reduce generality
    tensorlights utilization --quick                  # Result #3 direction
    tensorlights run --placement 1 --policy tls-one   # one raw experiment
    tensorlights campaign --placements 1 4 --cache    # journaled, resumable
    tensorlights campaign --resume 20260808-120000-abc123
    tensorlights reproduce --parallel 2                # check every paper claim
    tensorlights reproduce --only fig5a A12 --iterations 10

``--parallel N`` fans independent runs out over N worker processes;
``--cache`` / ``--cache-dir`` reuse results across invocations (results
are deterministic in the config, so both are safe — see
docs/reproduction-guide.md).

Every subcommand is one entry of :data:`COMMANDS`, which names its
generator, the flags it offers, whether it submits through a
:class:`~repro.experiments.campaign.Campaign`, and its exit rule.
:func:`main` builds every subparser and dispatches every command from
that table.  A subcommand offers only the config flags its generator
honors; the generator receives them as ``ExperimentConfig`` overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import TABLE1_PLACEMENTS
from repro.errors import ConfigError, ReproError
from repro.experiments import reproduce
from repro.experiments.campaign import (
    Campaign,
    CampaignEvent,
    ParallelExecutor,
    ResultCache,
)
from repro.experiments.config import (
    PAPER_SCALE,
    Architecture,
    ExperimentConfig,
    Policy,
)
from repro.experiments.figures import (
    codesign,
    collectives,
    fct,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5a,
    fig5b,
    fig6,
    impact,
    robustness,
    table1,
    table2,
)
from repro.experiments.figures.common import ALL_POLICIES
from repro.experiments.runtime import check_scenario
from repro.experiments.scenario import Scenario
from repro.units import parse_rate, parse_size


def _gbps(text: str) -> float:
    return parse_rate(text) * 8.0 / 1e9


def _bytes(text: str) -> float:
    return float(parse_size(text))


_POLICY = dict(type=Policy, choices=[p.value for p in Policy])
_PLACEMENT = dict(type=int, choices=sorted(TABLE1_PLACEMENTS))

#: Config flags; each ``dest`` is the ``ExperimentConfig`` field it sets.
CONFIG_FLAGS: Dict[str, Dict[str, Any]] = {
    "--jobs": dict(dest="n_jobs", type=int, help="concurrent jobs"),
    "--workers": dict(dest="n_workers", type=int, help="workers per job"),
    "--iterations": dict(type=int, help="sync iterations per job (paper: 1500)"),
    "--batch": dict(dest="local_batch_size", type=int, help="local batch size"),
    "--seed": dict(type=int),
    "--sample-interval": dict(type=float, help="telemetry sampling period"),
    "--netem-loss": dict(type=float, metavar="P",
                         help="drop fraction P of egress segments at worker NICs"),
    "--netem-delay": dict(type=float, metavar="S", help="egress delay at worker NICs"),
    "--netem-jitter": dict(type=float, metavar="S", help="uniform jitter on --netem-delay"),
    "--link-rate": dict(dest="link_gbps", type=_gbps, metavar="RATE",
                        help='host link rate, e.g. "10Gbit" or "2.5 Gbps"'),
    "--switch-buffer": dict(dest="switch_buffer_bytes", type=_bytes, metavar="SIZE",
                            help='per-switch-port egress buffer, e.g. "4MB" or "512KiB"'),
    "--allreduce-fraction": dict(type=float, metavar="F",
                                 help="fraction of jobs that become rings under mixed"),
    "--channels": dict(dest="allreduce_channels", type=int, metavar="N",
                       help="concurrent chunk channels per ring member"),
    "--placement": dict(dest="placement_index", **_PLACEMENT, help="Table I index"),
    "--placement-policy": dict(metavar="NAME", help="placement policy (see repro.placement); "
                                                    "non-oblivious ones ignore --placement"),
    "--policy": dict(**_POLICY),
    # Not a field: sets PAPER_SCALE's fields, under any explicit flag.
    "--paper-scale": dict(action="store_true", help="full 30000 global steps (slow)"),
}

#: Generator keyword arguments; an unset one keeps the generator's default.
OPTIONS: Dict[str, Dict[str, Any]] = {
    "--placements": dict(nargs="+", **_PLACEMENT, help="Table I placement indices"),
    "--batches": dict(dest="batch_sizes", type=int, nargs="+", help="local batch sizes"),
    "--losses": dict(type=float, nargs="+", help="netem loss rates (0.0 is the baseline)"),
    "--policies": dict(nargs="+", **_POLICY, help="scheduling-policy axis"),
    "--ps-crash": dict(action="store_true", help="also run each cell with a PS crash"),
    "--crash-at": dict(type=float, help="sim time of the PS crash"),
    "--crash-recover": dict(type=float, help="downtime before the PS restarts"),
    "--architectures": dict(nargs="+", type=Architecture,
                            choices=[Architecture.ALLREDUCE.value, Architecture.MIXED.value]),
    "--quick": dict(action="store_true", help="CI smoke scale; explicit config flags apply on top"),
    "--components": dict(nargs="+", metavar="NAME",
                         help="registered components to knock out (default: all)"),
    "--seeds": dict(type=int, nargs="+", help="seed sweep, >= 2 (default: from --seed)"),
    "--placement-policies": dict(dest="placements", nargs="+", metavar="NAME",
                                 help="placement-policy axis, with 'oblivious' and a smart one"),
    "--list-runs": dict(action="store_true", help="list journaled campaign runs and exit"),
    "--resume": dict(metavar="RUN_ID", help="resume a journaled campaign"),
    "--only": dict(nargs="+", choices=list(reproduce.GROUPS), metavar="GROUP",
                   help=f"groups to reproduce (default: all of {', '.join(reproduce.GROUPS)})"),
}

#: Flags read by :func:`_campaign` (campaign settings) or by a command's
#: ``emit`` (outputs).
SETTINGS: Dict[str, Dict[str, Any]] = {
    "--parallel": dict(type=int, metavar="N", help="run over N processes"),
    "--cache": dict(action="store_true",
                    help="reuse cached results ($REPRO_CACHE_DIR or ~/.cache/tensorlights-repro)"),
    "--cache-dir": dict(metavar="DIR", help="result cache at DIR (implies --cache)"),
    "--progress": dict(action="store_true", help="print per-run progress to stderr"),
    "--scenario-timeout": dict(type=float, metavar="S", help="wall-clock budget per scenario"),
    "--watchdog": dict(choices=["off", "warn", "raise"],
                       help="runtime invariant watchdog mode for every executed run"),
    "--metrics": dict(dest="observe_metrics", action="store_true",
                      help="run every scenario with the metrics registry on"),
    "--run-id": dict(help="explicit journal run id for a fresh campaign"),
    "--journal-dir": dict(metavar="DIR", help="journal directory (default: <cache dir>/journals)"),
    "--max-attempts": dict(type=int, help="attempts per scenario whose worker dies"),
    "--csv": dict(metavar="PATH", help="also write the table as CSV to PATH"),
    "--export": dict(choices=["json", "csv"], help="print machine-readable results"),
    "--output": dict(help="write the export to a file instead of stdout"),
    "--export-metrics": dict(metavar="PATH",
                             help="observe metrics; write one snapshot per scenario, plus "
                                  "'campaign', to PATH (.csv or JSONL)"),
    "--hashes": dict(metavar="PATH", help="write {scenario key: result content hash} JSON"),
}

FLAGS: Dict[str, Dict[str, Any]] = {**CONFIG_FLAGS, **OPTIONS, **SETTINGS}

#: The config flags a generator that keeps the standard config honors.
CONFIG: Tuple[str, ...] = (
    "--jobs", "--workers", "--iterations", "--batch", "--seed", "--netem-loss",
    "--netem-delay", "--netem-jitter", "--link-rate", "--switch-buffer", "--paper-scale",
)

#: The flags every campaign-backed command offers.
CAMPAIGN: Tuple[str, ...] = (
    "--parallel", "--cache", "--cache-dir", "--progress", "--scenario-timeout",
)


def _config_except(*dropped: str) -> Tuple[str, ...]:
    return tuple(flag for flag in CONFIG if flag not in dropped)


def _dest(flag: str) -> str:
    return FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


# -- output and exit rules -------------------------------------------------


def _print_render(args: argparse.Namespace, report: Any) -> None:
    print(report.render())


def _direction(report: Any) -> int:
    # The exit code IS the reproduction check (paper Result #3, or the
    # co-design composition check).
    return 0 if report.direction_ok() else 1


def _protocol(result: fig1.Fig1Result) -> int:
    result.verify_protocol()
    return 0


def _emit_utilization(args: argparse.Namespace, report: table2.Table2Result) -> None:
    print(report.render())
    if args.export_metrics:
        from repro.telemetry import write_csv, write_jsonl

        writer = write_csv if args.export_metrics.endswith(".csv") else write_jsonl
        writer(args.export_metrics, report.snapshots)
        print(f"wrote metrics snapshots to {args.export_metrics}")


def _study_emitter(table: str) -> Callable[[argparse.Namespace, Any], None]:
    def emit(args: argparse.Namespace, report: Any) -> None:
        print(report.render())
        print(f"({report.executed} executed, {report.cache_hits} cached, "
              f"{report.wall_seconds:.1f}s)")
        if args.csv:
            Path(args.csv).write_text(report.to_csv())
            print(f"wrote {table} to {args.csv}")
    return emit


def _emit_run(args: argparse.Namespace, res: Any) -> None:
    if args.export is not None:
        from repro.experiments.export import to_csv, to_json

        text = to_json([res]) if args.export == "json" else to_csv([res])
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote {args.export} export to {args.output}")
        else:
            print(text)
        return
    cfg = res.config
    where = (f"#{cfg.placement_index}" if cfg.placement_policy == "oblivious"
             else cfg.placement_policy)
    print(f"placement {where} policy={cfg.policy.value}")
    print(f"  avg JCT   : {res.avg_jct:.3f} s")
    print(f"  makespan  : {res.makespan:.3f} s")
    print(f"  barrier wait mean     : {res.barrier_wait_means().mean():.4f} s")
    print(f"  barrier wait variance : {res.barrier_wait_variances().mean():.6f} s^2")
    print(f"  sim events: {res.sim_events}  wall: {res.wall_seconds:.1f} s")
    for cmd in res.tc_commands:
        print(f"  {cmd}")


def _emit_campaign(args: argparse.Namespace, result: Any) -> None:
    if result is None:  # --list-runs printed the listing
        return
    from repro.experiments.export import result_content_hash

    print(f"run {result.run_id}: {result.executed} executed, {result.cache_hits} cached, "
          f"{len(result.failures)} failed, {result.wall_seconds:.1f}s")
    if result.failure_report():
        print(result.failure_report())
    if args.hashes:
        hashes = {scenario.key(): result_content_hash(r) if r is not None else None
                  for scenario, r in result.pairs()}
        Path(args.hashes).write_text(json.dumps(hashes, indent=2, sort_keys=True))
        print(f"wrote content hashes to {args.hashes}")


# -- generators that live here ---------------------------------------------


def _one(**overrides) -> List[Scenario]:
    return [Scenario(config=ExperimentConfig(**overrides))]


def _run_one(campaign: Campaign, **overrides) -> Any:
    """The ``run`` command: one raw experiment."""
    return campaign.run_one(_one(**overrides)[0])


def _campaign_grid(list_runs: bool = False, resume: Optional[str] = None,
                   placements: Sequence[int] = (1,),
                   policies: Sequence[Policy] = ALL_POLICIES,
                   **overrides) -> List[Scenario]:
    """The placement x policy grid a fresh ``campaign`` journals (none when
    it resumes a journaled run or lists the runs)."""
    if list_runs or resume is not None:
        return []
    cfg = ExperimentConfig(**overrides)
    return [
        Scenario(config=cfg.replace(placement_index=pl, policy=pol))
        .with_tags(policy=pol.value, placement=str(pl))
        for pl in placements for pol in policies
    ]


def _journaled_grid(campaign: Campaign, list_runs: bool = False,
                    resume: Optional[str] = None, **grid) -> Any:
    """The ``campaign`` command: a journaled placement x policy grid."""
    if list_runs:
        from repro.experiments.journal import list_runs as journaled_runs

        runs = journaled_runs(campaign.journal_dir)
        if not runs:
            print("no journaled campaign runs")
        for run in runs:
            print(f"{run['run_id']}  {run['bytes']:>8} bytes  {run['path']}")
        return None
    return campaign.run(None if resume is not None else _campaign_grid(**grid))


# -- the registry ----------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: its generator, the flags it offers, its exit rule.

    ``generate`` gets every set ``config`` flag as an ``ExperimentConfig``
    override, every set ``options`` flag that is in :data:`OPTIONS` as a
    keyword argument, and (when ``campaign``) the :class:`Campaign` built
    from the flags.  The other ``options`` flags are :data:`SETTINGS`.
    ``plan``, given the same arguments minus the campaign, builds the
    scenarios ``generate`` would run, so :func:`main` rejects one that
    cannot run as a usage error before anything runs.
    """

    generate: Callable[..., Any]
    help: str
    config: Tuple[str, ...] = CONFIG
    campaign: bool = False
    options: Tuple[str, ...] = ()
    emit: Callable[[argparse.Namespace, Any], None] = _print_render
    exit: Callable[[Any], int] = lambda report: 0
    plan: Optional[Callable[..., List[Scenario]]] = None

    def flags(self) -> Tuple[str, ...]:
        """Every flag this subcommand offers."""
        return self.config + (CAMPAIGN if self.campaign else ()) + self.options


def _figure(generate: Callable[..., Any], name: str, **fields: Any) -> Command:
    return Command(generate, help=f"regenerate {name}", **fields)


COMMANDS: Dict[str, Command] = {
    "table1": _figure(table1.generate, "table1", config=()),
    # Figure 1 traces one job on a fluid network; --workers/--iterations
    # become its own n_workers/iterations arguments.
    "fig1": _figure(fig1.generate, "fig1", exit=_protocol, plan=fig1.scenarios,
                    config=_config_except("--jobs", "--switch-buffer", "--paper-scale")),
    "fig2": _figure(fig2.generate, "fig2", campaign=True, options=("--placements",),
                    plan=fig2.scenarios),
    "fig3": _figure(fig3.generate, "fig3", campaign=True, plan=fig3.scenarios),
    "fig4": _figure(fig4.generate, "fig4", plan=fig4.scenarios,
                    config=_config_except("--jobs", "--switch-buffer")),
    "fig5a": _figure(fig5a.generate, "fig5a", campaign=True, options=("--placements",),
                     plan=fig5a.scenarios),
    "fig5b": _figure(fig5b.generate, "fig5b", campaign=True,
                     config=_config_except("--batch"), options=("--batches",),
                     plan=fig5b.scenarios),
    "fig6": _figure(fig6.generate, "fig6", campaign=True, plan=fig6.scenarios),
    "table2": _figure(table2.generate, "table2", campaign=True,
                      config=CONFIG + ("--sample-interval",), plan=table2.scenarios),
    "fct": _figure(fct.generate, "fct", plan=fct.scenarios),
    "robustness": Command(
        robustness.generate, "JCT degradation under egress loss and PS crashes, per policy",
        config=_config_except("--netem-loss"), campaign=True,
        options=("--losses", "--policies", "--ps-crash", "--crash-at", "--crash-recover"),
        plan=robustness.scenarios,
    ),
    "collectives": Command(
        collectives.generate,
        "TensorLights generality: all-reduce-only and mixed PS+all-reduce clusters, per policy",
        # Ring architectures have no worker-only hosts to impair.
        config=_config_except("--netem-loss", "--netem-delay", "--netem-jitter")
        + ("--allreduce-fraction", "--channels"), campaign=True,
        options=("--architectures", "--policies"), plan=collectives.scenarios,
    ),
    "utilization": Command(
        table2.generate,
        "Result #3: normalized NIC/CPU utilization, FIFO vs TLs-One vs TLs-RR",
        config=CONFIG + ("--sample-interval",), campaign=True,
        options=("--quick", "--watchdog", "--export-metrics"),
        emit=_emit_utilization, exit=_direction, plan=table2.scenarios,
    ),
    "campaign": Command(
        _journaled_grid,
        "durable scenario campaign: write-ahead journal, resumable after a kill, retries",
        campaign=True,
        options=("--placements", "--policies", "--run-id", "--resume", "--journal-dir",
                 "--list-runs", "--max-attempts", "--watchdog", "--metrics", "--hashes"),
        emit=_emit_campaign, exit=lambda result: int(bool(result and result.failures)),
        plan=_campaign_grid,
    ),
    "ablate": Command(
        impact.generate,
        "ranked component-impact study: knock each mechanism out of TLs-RR, bootstrap CIs",
        campaign=True, options=("--quick", "--components", "--seeds", "--csv"),
        emit=_study_emitter("impact table"), plan=impact.scenarios,
    ),
    "codesign": Command(
        codesign.generate,
        "placement x TensorLights co-design matrix, paired bootstrap CIs",
        campaign=True,
        options=("--quick", "--placement-policies", "--policies", "--seeds", "--csv"),
        emit=_study_emitter("co-design matrix"), exit=_direction,
        plan=codesign.scenarios,
    ),
    "reproduce": Command(
        reproduce.generate,
        "check every paper claim on its figure or ablation result; exit 1 if one fails",
        config=("--iterations", "--seed", "--paper-scale"), campaign=True,
        options=("--only",), exit=lambda report: 0 if report.ok() else 1,
        plan=reproduce.scenarios,
    ),
    "run": Command(
        _run_one, "run one raw experiment",
        config=CONFIG + ("--placement", "--placement-policy", "--policy"), campaign=True,
        options=("--export", "--output"), emit=_emit_run, plan=_one,
    ),
}


# -- building and dispatch --------------------------------------------------


def _campaign(args: argparse.Namespace) -> Campaign:
    """The campaign a command submits through, built from its flags."""
    flags = vars(args)
    # A journaled campaign always caches: resumed generations serve
    # completed scenarios from the cache.
    journaled = "journal_dir" in flags
    cache = None
    if flags.get("cache_dir"):
        cache = ResultCache(flags["cache_dir"])
    elif flags.get("cache") or journaled:
        cache = ResultCache.default()
    if cache is not None and flags.get("export_metrics"):
        raise ConfigError("--export-metrics observes every run, so it cannot "
                          "take results from --cache/--cache-dir")
    return Campaign(
        executor=(ParallelExecutor(flags["parallel"])
                  if flags.get("parallel") is not None else None),
        cache=cache,
        progress=_print_progress if flags.get("progress") else None,
        scenario_timeout=flags.get("scenario_timeout"),
        max_attempts=2 if flags.get("max_attempts") is None else flags["max_attempts"],
        journal=journaled,
        resume=flags.get("resume"),
        run_id=flags.get("run_id"),
        journal_dir=flags.get("journal_dir"),
        observe_metrics=bool(flags.get("observe_metrics") or flags.get("export_metrics")),
        watchdog=flags.get("watchdog"),
        on_failure="report" if journaled else "raise",
    )


def _print_progress(event: CampaignEvent) -> None:
    label = event.scenario.label
    print(f"[{event.completed}/{event.total}] {event.status:<7s} {label}",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The ``tensorlights`` parser, one subparser per :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="tensorlights",
        description="TensorLights (IPDPS 2019) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # No abbreviations: a dropped flag must not resolve to a longer one.
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in command.flags():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to a figure/run command."""
    # Behave like a well-mannered CLI in pipelines (`tensorlights ... | head`).
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):  # pragma: no cover
        pass  # non-POSIX platform or non-main thread (tests)
    parser = build_parser()
    # A bad flag value is a usage error; errors from the runs propagate.
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        given = {_dest(flag): getattr(args, _dest(flag)) for flag in command.flags()}
        overrides = dict(PAPER_SCALE) if given.get("paper_scale") else {}
        overrides.update((_dest(flag), given[_dest(flag)]) for flag in command.config
                         if flag != "--paper-scale" and given[_dest(flag)] is not None)
        kwargs = {_dest(flag): given[_dest(flag)] for flag in command.options
                  if flag in OPTIONS and given[_dest(flag)] is not None}
        ExperimentConfig(**overrides)
        if given.get("resume") and (overrides or given["placements"] or given["policies"]):
            raise ConfigError("--resume runs the journaled plan; it takes no "
                              "--placements, --policies or config flags")
        if command.plan is not None:
            for scenario in command.plan(**kwargs, **overrides):
                check_scenario(scenario)
        if command.campaign:
            kwargs["campaign"] = _campaign(args)
    except ReproError as exc:
        parser.error(str(exc))
    # A configuration only the runs show to be unmeasurable (e.g. too short
    # for its sample interval) is reported in one line; other errors from
    # the runs propagate.
    try:
        report = command.generate(**kwargs, **overrides)
    except ConfigError as exc:
        print(f"tensorlights {args.command}: error: {exc}", file=sys.stderr)
        return 2
    command.emit(args, report)
    return command.exit(report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
