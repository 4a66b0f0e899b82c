"""Command-line interface: regenerate the paper's artifacts.

Usage::

    python -m repro table1 [--scale 1.0]
    python -m repro table2 [--samples 10] [--workers 4]
    python -m repro figure1 [--samples 150] [--workers 4]
    python -m repro fleet [--sites 3] [--sessions 3] [--shards 4]
                          [--interval T] [--out flight.jsonl]
    python -m repro ablations [--workers 4]
    python -m repro overlay
    python -m repro migration
    python -m repro all
    python -m repro analyze [--path SRC ...] [--deep] [--shard]
                            [--scale] [--shard-inventory FILE]
                            [--scale-inventory FILE] [--explain RULE]
                            [--json | --sarif] [--baseline FILE]
    python -m repro sanitize {figure1,table1,table2} [--seed N]
    python -m repro trace {figure1,table1,table2} [--out trace.json]
    python -m repro metrics {figure1,table1,table2} [--json]
    python -m repro record {figure1,table1,table2} [--interval T]
                           [--capacity N] [--out FILE]
    python -m repro report {figure1,table1,table2} [--interval T]
                           [--format {text,markdown}]
    python -m repro profile {figure1,table1,table2} [--seed N] [--top K]

Each experiment command prints the same tables the benchmark harness
archives; ``analyze`` runs the simlint static-analysis pass (see
``docs/static_analysis.md``) and exits non-zero on findings —
``--deep`` adds the interprocedural dataflow rules R11-R14,
``--shard`` the shard-affinity rules R15-R19 (``--shard-inventory``
also regenerates ``docs/shard-safety.md``) and ``--scale`` the
growth-dimension rules R22-R26 (``--scale-inventory`` also regenerates
``docs/scale-readiness.md``); ``--explain R22`` prints one rule's full
documentation.
``sanitize`` replays a scenario under the simsan runtime determinism
sanitizer and exits non-zero on hazards or output divergence.  ``trace``
replays a representative session life cycle for an experiment and
writes a Chrome-trace-event JSON file (load it at ui.perfetto.dev);
``metrics`` prints the metrics registry after the same run.  ``record``
replays the run with a flight recorder heartbeating every ``--interval``
simulated seconds and writes the snapshot ring as JSONL (byte-identical
per seed); ``report`` renders the same run as an operator report —
throughput, latency percentiles, utilization, SLA violations and a
per-partition rollup.  See ``docs/observability.md``.
``profile`` replays the same life cycle
under :mod:`cProfile` and prints the top functions by cumulative time
(``docs/performance.md``) — the entry point every fast path in the
model layer was justified from.

``--workers N`` fans independent replications across N processes
(``docs/performance.md``); every artifact is byte-identical for any
worker count, including the single-world ``trace``/``metrics`` runs,
which stay sequential by construction.

``--shards N`` applies to ``fleet`` only, the message-coupled
multi-site scenario: one shard per site, up to N kernels in parallel
under the deterministic conservative protocol of
:mod:`repro.simulation.sharded` with adaptive windows
(``docs/sharding.md``).
Its artifacts are byte-identical for any shard count.  Any other
command rejects ``--shards`` other than 1, and the count arguments
(``--samples``, ``--workers``, ``--shards``, ``--sites``,
``--sessions``) must be positive: both are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.reporting import format_table

__all__ = ["main"]


def _cmd_table1(args) -> None:
    from repro.experiments.table1 import run_table1

    scale = float(args.scale) if args.scale is not None else 1.0
    rows = run_table1(scale=scale, seed=args.seed)
    print(format_table(
        ["Application", "Resource", "User(s)", "Sys(s)", "Total(s)",
         "Overhead"],
        [[r.application, r.resource, "%.0f" % r.user_time,
          "%.1f" % r.sys_time, "%.0f" % r.total_time,
          "%.2f%%" % (100 * r.overhead) if r.overhead is not None
          else "N/A"] for r in rows],
        title="Table 1: macrobenchmark results"))


def _cmd_table2(args) -> None:
    from repro.experiments.table2 import run_table2

    rows = run_table2(samples=args.samples, seed=args.seed,
                      workers=args.workers)
    print(format_table(
        ["Start", "Storage", "Mean(s)", "Std", "Min", "Max"],
        [[r.start_mode, r.storage_mode, "%.1f" % r.mean, "%.1f" % r.std,
          "%.1f" % r.minimum, "%.1f" % r.maximum] for r in rows],
        title="Table 2: VM startup times via globusrun"))


def _cmd_figure1(args) -> None:
    from repro.experiments.figure1 import run_figure1

    results = run_figure1(samples=args.samples, seed=args.seed,
                          workers=args.workers)
    print(format_table(
        ["Load", "Test on", "Load on", "Mean slowdown", "Std"],
        [[r.load_level, r.test_on, r.load_on, "%.3f" % r.mean_slowdown,
          "%.3f" % r.std_slowdown] for r in results],
        title="Figure 1: microbenchmark slowdown (12 scenarios)"))


def _cmd_ablations(args) -> None:
    from repro.experiments.ablations import (
        run_proxy_cache_ablation,
        run_scheduler_ablation,
        run_staging_ablation,
    )

    cache = run_proxy_cache_ablation(seed=args.seed, workers=args.workers)
    print(format_table(
        ["Proxy cache", "Cold(s)", "Warm mean(s)"],
        [["on" if r.proxy_cache else "off", "%.1f" % r.cold,
          "%.1f" % r.warm_mean] for r in cache],
        title="A1: proxy cache"))
    print()
    sched = run_scheduler_ablation(seed=args.seed, workers=args.workers)
    print(format_table(
        ["Mechanism", "VM", "Target", "Achieved"],
        [[r.mechanism, r.vm, "%.3f" % r.target, "%.3f" % r.achieved]
         for r in sched],
        title="A2: enforcement mechanisms"))
    print()
    staging = run_staging_ablation(workers=args.workers)
    print(format_table(
        ["Fraction", "On-demand(s)", "Staged(s)", "Winner"],
        [["%.2f" % p.fraction, "%.1f" % p.on_demand_time,
          "%.1f" % p.staged_time,
          "on-demand" if p.on_demand_wins else "staged"]
         for p in staging],
        title="A3: staging vs on-demand"))


def _cmd_fleet(args) -> None:
    from repro.experiments.fleet import run_fleet

    result = run_fleet(sites=args.sites, sessions=args.sessions,
                       seed=args.seed, shards=args.shards,
                       interval=args.interval, capacity=args.capacity)
    print(result.render())
    print(result.merged_metrics().to_table(
        title="Fleet metrics (merged across %d site shard(s))"
        % len(result.sites)))
    if args.out:
        recorder = result.merged_recorder()
        count = recorder.write(args.out)
        print("\nwrote %s: %d merged heartbeat(s) at %gs intervals"
              % (args.out, count, args.interval))


def _cmd_overlay(args) -> None:
    from repro.experiments.overlay_experiment import run_overlay_experiment

    trials = run_overlay_experiment(seed=args.seed)
    print(format_table(
        ["Trial", "Improved pairs", "Direct(ms)", "Overlay(ms)"],
        [[i, "%d/%d" % (t.pairs_improved, t.pairs),
          "%.1f" % (1e3 * t.mean_direct_latency),
          "%.1f" % (1e3 * t.mean_overlay_latency)]
         for i, t in enumerate(trials)],
        title="O1: overlay routing"))


def _cmd_migration(args) -> None:
    from repro.experiments.migration_experiment import (
        run_migration_experiment,
    )

    result = run_migration_experiment(seed=args.seed)
    print(format_table(
        ["Metric", "Value"],
        [["downtime", "%.1f s" % result.downtime],
         ["completion (migrated)", "%.1f s" % result.completion_time],
         ["completion (baseline)",
          "%.1f s" % result.baseline_completion_time],
         ["mounts preserved", str(result.mounts_preserved)],
         ["final host", result.final_host]],
        title="M1: migration"))


def _require_target(args) -> str:
    from repro.obs.runner import SCENARIOS

    if args.target is None:
        print("error: %s needs an experiment target (one of: %s)"
              % (args.command, ", ".join(SCENARIOS)), file=sys.stderr)
        raise SystemExit(2)
    if args.target not in SCENARIOS:
        print("error: unknown experiment %r (one of: %s)"
              % (args.target, ", ".join(SCENARIOS)), file=sys.stderr)
        raise SystemExit(2)
    return args.target


def _cmd_trace(args) -> None:
    from repro.obs.runner import trace_experiment

    target = _require_target(args)
    out = args.out or "%s-trace.json" % target
    sim, count = trace_experiment(target, out, seed=args.seed)
    print("wrote %s: %d trace events, %.2f simulated seconds"
          % (out, count, sim.now))


def _cmd_metrics(args) -> None:
    from repro.obs.runner import run_scenario

    target = _require_target(args)
    sim = run_scenario(target, seed=args.seed)
    if args.json:
        print(sim.metrics.to_json())
    else:
        print(sim.metrics.to_table(
            title="Metrics: %s (seed %d)" % (target, args.seed)))


def _cmd_record(args) -> None:
    from repro.obs.runner import record_experiment

    target = _require_target(args)
    out = args.out or "%s-record.jsonl" % target
    sim, _grid, recorder = record_experiment(
        target, interval=args.interval, seed=args.seed,
        capacity=args.capacity)
    count = recorder.write(out)
    print("wrote %s: %d heartbeat(s) at %gs intervals, "
          "%.2f simulated seconds"
          % (out, count, args.interval, sim.now))


def _cmd_report(args) -> None:
    from repro.obs.report import render_report
    from repro.obs.runner import record_experiment

    target = _require_target(args)
    sim, grid, recorder = record_experiment(
        target, interval=args.interval, seed=args.seed,
        capacity=args.capacity)
    print(render_report(
        sim, grid=grid, recorder=recorder,
        title="Run report: %s (seed %d)" % (target, args.seed),
        fmt=args.format), end="")


def _cmd_profile(args) -> None:
    import cProfile
    import pstats

    from repro.obs.runner import run_scenario

    target = _require_target(args)
    profiler = cProfile.Profile()
    profiler.enable()
    sim = run_scenario(target, seed=args.seed)
    profiler.disable()
    print("profile: %s, seed %d, %.2f simulated seconds, %d events"
          % (target, args.seed, sim.now, sim._next_id))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)


def _cmd_analyze(args) -> int:
    from repro.analysis.cli import main as simlint_main

    argv = list(args.path or [])
    if args.deep:
        argv.append("--deep")
    if args.shard:
        argv.append("--shard")
    if args.shard_inventory:
        argv.append("--shard-inventory=%s" % args.shard_inventory)
    if args.scale is not None:
        argv.append("--scale")
    if args.scale_inventory:
        argv.append("--scale-inventory=%s" % args.scale_inventory)
    if args.explain:
        argv.append("--explain=%s" % args.explain)
    if args.sarif:
        argv.append("--format=sarif")
    elif args.json:
        argv.append("--format=json")
    if args.baseline:
        argv.append("--baseline=%s" % args.baseline)
    return simlint_main(argv)


def _cmd_sanitize(args) -> int:
    from repro.analysis.sanitizer import DeterminismSanitizer
    from repro.obs.runner import run_scenario

    target = _require_target(args)
    sanitizer = DeterminismSanitizer()
    sim = run_scenario(target, seed=args.seed, tracer=sanitizer)
    hazards = sanitizer.finish()
    # The sanitizer must be a pure observer: replay the scenario
    # untraced and require byte-identical experiment output.
    plain = run_scenario(target, seed=args.seed)
    identical = (sim.now == plain.now  # simlint: disable=R6  bytewise
                 and sim.metrics.to_json() == plain.metrics.to_json())
    for hazard in hazards:
        print(hazard.render())
    print("simsan: %s, seed %d: %d hazard(s), %.2f simulated seconds, "
          "output %s"
          % (target, args.seed, len(hazards), sim.now,
             "identical to untraced run" if identical
             else "DIVERGED from untraced run"))
    return 1 if hazards or not identical else 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure1": _cmd_figure1,
    "fleet": _cmd_fleet,
    "ablations": _cmd_ablations,
    "overlay": _cmd_overlay,
    "migration": _cmd_migration,
    "analyze": _cmd_analyze,
    "sanitize": _cmd_sanitize,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "record": _cmd_record,
    "report": _cmd_report,
    "profile": _cmd_profile,
}


def _positive_int(text: str) -> int:
    """argparse type for a count argument: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'A Case For Grid "
                    "Computing On Virtual Machines' (ICDCS 2003).")
    parser.add_argument("command",
                        choices=sorted(_COMMANDS) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("target", nargs="?", default=None,
                        help="trace/metrics: which experiment scenario "
                             "(figure1, table1 or table2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed (default 0)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="replication worker processes (default 1: "
                             "sequential; results are byte-identical "
                             "for any value)")
    parser.add_argument("--shards", type=_positive_int, default=1,
                        help="fleet: run up to N site kernels in "
                             "parallel (default 1; results are "
                             "byte-identical for any value — see "
                             "docs/sharding.md)")
    parser.add_argument("--sites", type=_positive_int, default=3,
                        help="fleet: number of sites (default 3)")
    parser.add_argument("--sessions", type=_positive_int, default=3,
                        help="fleet: sessions per site (default 3)")
    parser.add_argument("--out", default=None,
                        help="trace: output file "
                             "(default <target>-trace.json); "
                             "fleet: merged flight-record JSONL path")
    parser.add_argument("--scale", nargs="?", const="1", default=None,
                        metavar="FACTOR",
                        help="table1: application scale factor "
                             "(default 1.0); analyze: add the "
                             "growth-dimension pass (rules R22-R26)")
    parser.add_argument("--scale-inventory", default=None, metavar="FILE",
                        help="analyze: regenerate the scale-readiness "
                             "inventory at FILE (implies --scale)")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="analyze: print one rule's documentation "
                             "(e.g. --explain R22) and exit")
    parser.add_argument("--samples", type=_positive_int, default=None,
                        help="table2/figure1: sample count")
    parser.add_argument("--path", action="append", default=None,
                        help="analyze: file/directory to lint (repeatable; "
                             "default: the installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="analyze: emit findings as JSON")
    parser.add_argument("--deep", action="store_true",
                        help="analyze: add the interprocedural pass "
                             "(rules R11-R14)")
    parser.add_argument("--shard", action="store_true",
                        help="analyze: add the shard-affinity pass "
                             "(rules R15-R19)")
    parser.add_argument("--shard-inventory", default=None, metavar="FILE",
                        help="analyze: regenerate the shard-safety "
                             "inventory at FILE (implies --shard)")
    parser.add_argument("--sarif", action="store_true",
                        help="analyze: emit findings as SARIF 2.1.0")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="analyze: report only findings not in this "
                             "baseline file")
    parser.add_argument("--top", type=int, default=25,
                        help="profile: how many functions to print "
                             "(default 25)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="record/report: flight-recorder heartbeat "
                             "period in simulated seconds (default 1.0)")
    parser.add_argument("--capacity", type=int, default=512,
                        help="record/report: flight-recorder ring size "
                             "(default 512 heartbeats)")
    parser.add_argument("--format", default="text",
                        choices=("text", "markdown"),
                        help="report: output format (default text)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards != 1 and args.command != "fleet":
        parser.error("--shards applies only to fleet")
    if args.samples is None:
        args.samples = 150 if args.command == "figure1" else 10
    if args.command == "all":
        for name in ("table1", "figure1", "table2", "ablations",
                     "overlay", "migration"):
            if name == "figure1" and args.samples == 10:
                args.samples = 150
            _COMMANDS[name](args)
            print()
        return 0
    return _COMMANDS[args.command](args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
