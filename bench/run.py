"""Run the repository benchmark: one workload, or all of them.

Usage (from the repository root)::

    python3 bench/run.py --workload fig2-fifo --seed 42
    python3 bench/run.py --workload all --seed 42 --out report.json
    python3 bench/run.py --workload fig2-tls-one --seed 42 --trace
    python3 bench/run.py --workload all --seed 42 --quick
    python3 bench/run.py --workload all --seed 42 --record   # re-pin hashes

The workloads and the metrics, with their units and bounds, are those of
``BENCHMARK.json`` at the repository root; ``bench/README.md`` explains
them.  The program under test is imported from ``src/`` of the same
checkout.  Every metric is printed as ``name value unit``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An untraced run reports the
end-to-end metrics, a traced run (``--trace``) the per-layer ones.

Every result is checked against ``bench/golden.json`` (when it pins this
workload, size and seed) and against the run's own first result.  The
exit code is 0 when every check passed, 1 when any failed and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NoReturn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = BENCH_DIR / "golden.json"
#: scratch space inside the checkout (caches, journals, child reports)
WORK_ROOT = ROOT / ".bench_build"
#: measuring time of one run; BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 18.0


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {SPEC.name}: {exc}")


def import_workloads():
    """Import the benchmark's workloads against this checkout's ``src/``."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        _fail(f"{package} not found: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        _fail(f"imported repro from {repro.__file__}, not from {package}")
    import workloads

    return workloads


def load_golden(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        _fail(f"cannot parse {path}: {exc}")


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    wl = import_workloads()
    w = wl.WORKLOADS[args.workload]
    profile = "quick" if args.quick else "full"
    golden = load_golden(args.golden)

    if args.record:
        digest = wl.digest(w, args.seed, args.quick)
        golden.setdefault(profile, {}).setdefault(w.name, {})[str(args.seed)] = digest
        args.golden.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{w.name} {profile} seed {args.seed}: {digest}")
        return 0

    checker = wl.Checker(golden.get(profile, {}).get(w.name, {}).get(str(args.seed)))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    try:
        if args.trace:
            samples, ledger = wl.measure_traced(
                w, args.seed, args.seconds, args.quick, checker, work)
            wall = wl.summarize(samples.wall)["median"]
            traced = wl.summarize(samples.traced)["median"]
            layered = ledger.metrics(wall, traced)
            summaries = {name: wl.summarize([v]) for name, v in layered.items()}
            wanted = spec["per_layer"]
            extra = {"self_ms_total": ledger.self_ns_total() / ledger.units / 1e6,
                     "traced_wall_ms": ledger.wall_ns / ledger.units / 1e6,
                     "traced_unit_s": traced, "untraced_unit_s": wall,
                     "layers": {
                         name: {"calls": calls / ledger.units,
                                "self_ms": self_ns / ledger.units / 1e6}
                         for name, (calls, self_ns) in sorted(ledger.layers.items())}}
        else:
            samples = wl.measure(w, args.seed, args.seconds, args.quick,
                                 checker, work, BENCH_DIR, SRC)
            summaries = {
                "wall_s": wl.summarize(samples.wall),
                "events_per_s": wl.summarize(samples.rate),
                "warm_s": wl.summarize(samples.warm),
                "setup_s": wl.summarize(samples.setup),
                "peak_rss_mb": wl.summarize([peak_rss_mb(w.is_grid)]),
            }
            wanted = spec["end_to_end"]
            extra = {"raw": {f"{kind}_s": wl.summarize(values)
                             for kind, values in samples.raw.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_share = checker.failed / max(checker.attempted, 1)
    correct = checker.failed == 0 and checker.attempted > 0
    metrics = {}
    for m in wanted:
        s = summaries[m["name"]]
        metrics[m["name"]] = dict(s, value=s["median"], unit=m["unit"])
        spread = (f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
                  if s["n"] > 1 else "")
        print(f"{m['name']} {s['median']:.6g} {m['unit']}{spread}")
    for name, s in extra.get("raw", {}).items():
        print(f"raw {name} {s['median']:.6g} s  (as measured, q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g})")
    probes = wl.summarize(samples.probes)
    print(f"host_probe_s {probes['median']:.5f} s  (min {min(samples.probes):.5f}, "
          f"max {max(samples.probes):.5f}, n {probes['n']}, reference "
          f"{wl.REFERENCE_PROBE_S})")
    print(f"failed_share {failed_share:.6g} ratio "
          f"({checker.failed} of {checker.attempted})")
    print(f"hash {checker.digest}")

    if args.out:
        report = {
            "workload": w.name, "seed": args.seed, "size": profile,
            "trace": bool(args.trace), "seconds": args.seconds,
            "correct": correct, "attempted": checker.attempted,
            "failed": checker.failed, "failed_share": failed_share,
            "hash": checker.digest, "golden": checker.golden,
            "host_probe_s": dict(probes, values=samples.probes),
            "metrics": metrics, **extra,
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="all-", dir=WORK_ROOT))
    reports: Dict[str, dict] = {}
    codes: List[int] = []
    try:
        for entry in spec["workloads"]:
            name = entry["name"]
            out = work / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--golden", str(args.golden), "--out", str(out)]
            cmd += ["--quick"] * args.quick + ["--record"] * args.record
            print(f"== {name}", flush=True)
            codes.append(subprocess.run(cmd).returncode)
            if out.exists():
                reports[name] = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        return max(codes)
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": reports}, indent=1) + "\n")
    correct = len(reports) == len(spec["workloads"]) and all(
        r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {f"{name}/{k}": {"value": v["value"], "unit": v["unit"]}
                    for name, r in reports.items()
                    for k, v in r["metrics"].items()},
    }))
    return max(codes) if max(codes) else (0 if correct else 1)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one run (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced runs")
    parser.add_argument("--quick", action="store_true",
                        help="small workload sizes (the benchmark's own tests)")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden hashes (default: bench/golden.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's hashes in --golden instead "
                             "of measuring (after a deliberate behaviour change)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
