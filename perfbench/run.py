"""Benchmark of the VM-grid simulator: host time per paper artifact.

Usage, from the repository root:

    python3 perfbench/run.py --workload table2_startup --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times untraced rounds of the workload for ``--seconds``
and reports the end-to-end metrics (set-up, wall clock and CPU time per
round at the reference host speed, peak resident memory).  ``--trace 1``
runs the same rounds with every layer wrapped (see ``ledger.py``) and
reports the per-layer split.
Either way the artifacts are checked, the last line of standard output
is one JSON object, and a failed check exits with status 1.  Each run
also writes its details to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: (name, unit) of every per-layer metric, reported by traced runs.
PER_LAYER = (
    ("simulation.kernel.self_s", "s"),
    ("simulation.kernel.events", "count"),
    ("simulation.kernel.resumes", "count"),
    ("simulation.sharded.self_s", "s"),
    ("simulation.sharded.rounds", "count"),
    ("hardware.cpu.self_s", "s"),
    ("hardware.cpu.calls", "count"),
    ("hardware.disk.self_s", "s"),
    ("hardware.disk.ops", "count"),
    ("guestos.self_s", "s"),
    ("workloads.self_s", "s"),
    ("vmm.self_s", "s"),
    ("storage.localfs.self_s", "s"),
    ("storage.cache.self_s", "s"),
    ("storage.cache.calls", "count"),
    ("storage.cache.evictions", "count"),
    ("storage.cache.lookups", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.nfs.self_s", "s"),
    ("storage.pvfs.self_s", "s"),
    ("gridnet.flows.self_s", "s"),
    ("gridnet.flows.transfers", "count"),
    ("gridnet.flows.fills", "count"),
    ("middleware.self_s", "s"),
    ("obs.self_s", "s"),
    ("obs.samples", "count"),
    ("experiments.self_s", "s"),
)


def process_age() -> float:
    """Seconds since this process started (the kernel's start stamp)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _workers() -> list:
    import multiprocessing

    return [child.pid for child in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """CPU time of this process plus its live worker processes."""
    total = time.process_time()
    for pid in _workers():
        try:
            with open("/proc/%d/schedstat" % pid) as handle:
                total += int(handle.read().split()[0]) / 1e9
        except OSError:
            pass  # the worker exited between listing and reading
    return total


def workers_peak_kib() -> int:
    """Sum of the live worker processes' peak resident memory, KiB."""
    kib = 0
    for pid in _workers():
        try:
            with open("/proc/%d/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass  # the worker exited between listing and reading
    return kib


#: Time of one :func:`_reference_loop` on the reference host, seconds
#: (the 2-core Xeon VM the README's figures come from, uncontended).
REFERENCE_LOOP_S = 0.0070
#: Loops timed per probe of the host's speed; the probe is their median.
PROBE_LOOPS = 5


def _reference_loop() -> float:
    """A fixed piece of pure-Python work that shares nothing with the
    program: dictionary stores and loads and float arithmetic on a small
    working set, so its time follows the interpreter's speed on this
    host at this moment."""
    table = {}
    total = 0.0
    for i in range(40000):
        table[i & 1023] = i * 0.5
        total += table.get((i * 7) & 1023, 0.0)
    return total


def _probe_here() -> float:
    times = []
    for _ in range(PROBE_LOOPS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_speed(every_core: bool = False) -> float:
    """Seconds one reference loop takes now (median of a few).

    With ``every_core`` the loop is timed on each core this process may
    use, pinned there in turn, and the cores' times are averaged: the
    cores' speeds drift apart, and a round that keeps every core busy
    runs at their mean speed.
    """
    if not every_core:
        return _probe_here()
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(_probe_here())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(times)


def current_core() -> int:
    """The core this process last ran on."""
    with open("/proc/self/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _out_of_time(started: float, walls: list, seconds: float) -> bool:
    """True when another whole round would not end within ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(walls) > seconds


def run_untraced(workload, seconds: float, setup_s: float) -> dict:
    """Timed rounds for ``seconds``; medians of the per-round figures.

    The host's speed drifts by up to a factor of two over tens of
    seconds (other tenants share its cores), so each round's wall clock
    and CPU time are scaled by ``REFERENCE_LOOP_S`` over the reference
    loop's time probed just before and just after the round: the
    figures are seconds at the reference host's speed.  ``setup_s``,
    which ends just before the first probe, is scaled by that probe.
    The raw figures go to the run's report.
    """
    cores = os.sched_getaffinity(0)
    if not workload.every_core:
        # The cores' speeds drift apart: keep the rounds on the core the
        # probes time.
        os.sched_setaffinity(0, {current_core()})
    try:
        return _untraced_rounds(workload, seconds, setup_s)
    finally:
        os.sched_setaffinity(0, cores)


def _untraced_rounds(workload, seconds: float, setup_s: float) -> dict:
    walls, cpus, probes, failures = [], [], [], []
    workers_kib = 0
    first_key = paper_error = None
    started = time.perf_counter()
    gc.collect()
    probes.append(probe_speed(workload.every_core))
    while True:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        artifact = workload.run()
        wall = time.perf_counter() - t0
        cpus.append(cpu_seconds() - cpu0)
        walls.append(wall)
        workers_kib = max(workers_kib, workers_peak_kib())
        # Each round starts its own worker processes, as a user's run does.
        workload.release()
        key = workload.key(artifact)
        if first_key is None:
            first_key = key
            failures += workload.check(artifact)
            paper_error = workload.paper_error(artifact)
        elif key != first_key:
            failures.append("round %d artifact differs from round 1"
                            % len(walls))
        artifact = None
        gc.collect()  # the previous round's garbage is not this round's
        probes.append(probe_speed(workload.every_core))
        if _out_of_time(started, walls, seconds):
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kib
    failures += workload.final_check(first_key)
    scales = [2 * REFERENCE_LOOP_S / (before + after)
              for before, after in zip(probes, probes[1:])]
    metrics = {"setup_s": _metric(setup_s * REFERENCE_LOOP_S / probes[0],
                                  "s"),
               "run_s": _metric(statistics.median(
                   w * k for w, k in zip(walls, scales)), "s"),
               "cpu_s": _metric(statistics.median(
                   c * k for c, k in zip(cpus, scales)), "s"),
               "peak_rss_mb": _metric(rss_kib / 1024.0, "MB")}
    details = {"rounds_wall_s": walls, "rounds_cpu_s": cpus,
               "reference_loop_s": probes, "raw_setup_s": setup_s,
               "raw_median_wall_s": statistics.median(walls),
               "raw_median_cpu_s": statistics.median(cpus),
               "paper_error": paper_error}
    return {"rounds": len(walls), "failures": failures,
            "metrics": metrics, "details": details}


def _layer_metrics(ledger, snapshot: dict) -> dict:
    """Per-layer figures of one traced round."""
    self_time = dict(zip(ledger.layers, snapshot["self_time"]))
    layer_calls = {}
    function_calls = {}
    for (layer, name), calls in zip(ledger.functions, snapshot["calls"]):
        layer_calls[layer] = layer_calls.get(layer, 0) + calls
        function_calls[name] = calls
    counts = snapshot["counts"]
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    values = {
        "simulation.kernel.events": snapshot["events"],
        "simulation.kernel.resumes": snapshot["resumes"],
        "simulation.sharded.rounds": counts.get("sharded.rounds", 0),
        "hardware.cpu.calls": layer_calls.get("hardware.cpu", 0),
        "hardware.disk.ops": counts.get("disk.ops", 0),
        "storage.cache.calls": layer_calls.get("storage.cache", 0),
        "storage.cache.evictions": counts.get("cache.evictions", 0),
        "storage.cache.lookups": lookups,
        "storage.cache.hit_ratio": (counts.get("cache.hits", 0) / lookups
                                    if lookups else 0.0),
        "gridnet.flows.transfers": counts.get("flows.started", 0),
        "gridnet.flows.fills": counts.get("flows.fills", 0),
        "obs.samples": function_calls.get(
            "repro.obs.recorder:FlightRecorder.sample", 0),
    }
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_time[name[:-len(".self_s")]]
    return {"values": values, "self_time": self_time,
            "layer_calls": layer_calls, "counts": counts,
            "top_functions": sorted(function_calls.items(),
                                    key=lambda item: -item[1])[:25]}


def run_traced(workload, seconds: float) -> dict:
    """Traced rounds for ``seconds``, bracketed by untraced rounds.

    The first untraced round gives the artifact every traced round must
    reproduce; the last one, warm, is the base of the tracing overhead.
    """
    from ledger import Ledger

    failures = []
    reference = workload.run()
    reference_key = workload.key(reference)
    failures += workload.check(reference)
    reference = None
    workload.release()  # shard workers must fork with the wrappers

    ledger = Ledger()
    ledger.install()
    rounds, walls = [], []
    started = time.perf_counter()
    try:
        while True:
            gc.collect()
            ledger.reset()
            t0 = time.perf_counter()
            artifact = workload.run()
            walls.append(time.perf_counter() - t0)
            workload.release()
            ledger.harvest()
            rounds.append(_layer_metrics(ledger, ledger.snapshot()))
            if workload.key(artifact) != reference_key:
                failures.append("traced round %d artifact differs from "
                                "the untraced one" % len(rounds))
            if len(rounds) == 1:
                failures += workload.check_trace(ledger)
            elif rounds[-1]["counts"] != rounds[0]["counts"]:
                failures.append("traced round %d modelled counts differ "
                                "from round 1" % len(rounds))
            artifact = None
            if _out_of_time(started, walls, seconds):
                break
    finally:
        ledger.uninstall()
        workload.release()

    gc.collect()
    t0 = time.perf_counter()
    again = workload.run()
    untraced_wall = time.perf_counter() - t0
    failures += [] if workload.key(again) == reference_key else [
        "untraced rounds before and after tracing differ"]

    metrics = {}
    for name, unit in PER_LAYER:
        series = [r["values"][name] for r in rounds]
        value = (statistics.median(series) if unit == "s"
                 else series[-1])
        metrics[name] = _metric(value, unit)
    traced_wall = statistics.median(walls)
    details = {
        "traced_rounds_wall_s": walls,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead": traced_wall / untraced_wall - 1.0,
        "self_time_all_layers_s": {
            layer: statistics.median(r["self_time"][layer] for r in rounds)
            for layer in ledger.layers},
        "calls_by_layer": rounds[-1]["layer_calls"],
        "counts": rounds[-1]["counts"],
        "top_functions_by_calls": rounds[-1]["top_functions"],
    }
    return {"rounds": len(rounds) + 2, "failures": failures,
            "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.make(args.workload, args.seed)
    setup_s = process_age()
    try:
        if args.trace:
            outcome = run_traced(workload, args.seconds)
        else:
            outcome = run_untraced(workload, args.seconds, setup_s)
    finally:
        workload.release()

    failures = outcome["failures"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "inputs": workload.describe(),
              "cores": os.cpu_count(), "python": sys.version.split()[0],
              "failures": failures, "metrics": outcome["metrics"],
              "details": outcome["details"]}
    path = out_dir / ("%s-seed%d%s.json" % (args.workload, args.seed,
                                            suffix))
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for failure in failures:
        print("CHECK FAILED: %s" % failure, file=sys.stderr)
    if args.trace:
        details = outcome["details"]
        print("tracing overhead %+.0f%% (traced round %.3f s, untraced "
              "%.3f s); details in %s"
              % (100 * details["tracing_overhead"],
                 statistics.median(details["traced_rounds_wall_s"]),
                 details["untraced_wall_s"], path.relative_to(ROOT)),
              file=sys.stderr)
    result = {"correct": not failures,
              "attempted": outcome["rounds"] * workload.ops_per_round,
              "failed": 0,
              "metrics": outcome["metrics"]}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
