"""Run one zonomix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuzz_bezout --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics.  ``--trace 1`` runs a fixed amount of work twice, untraced and then
traced, and reports the per-layer metrics; its counts repeat exactly for a
given seed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the run
metadata.  Exit code 0 means every output was right, 1 that some output was
wrong, 2 a usage error or a checkout without zonomix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from array import array
from pathlib import Path
from statistics import median

import stats
import tracing
import workloads
from hostspeed import HostSpeed
from workloads import POOL, PROBES, SIZES

ROOT = Path(__file__).resolve().parent.parent
# The seed used while writing a change, and one kept for confirming it.  Any
# two seeds give disjoint fuzz trials (see workloads.fuzz_seed).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 11
TAIL_WINDOW = 250  # operations per window of the tail latency


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def timed_run(bench, seconds: int, meta: dict) -> dict:
    # Every time below is scaled to the reference host speed (see hostspeed).
    host = HostSpeed()
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter_ns()
        bench.setup()
        setup.append((time.perf_counter_ns() - start) * host.factor())
    # One warm-up round, checked but not timed.  Timed steps then run in
    # whole rounds, so a workload that alternates input sizes keeps them balanced.
    rounds = bench.steps_per_round
    for i in range(rounds):
        bench.step(i)
    host.factor()
    raw = busy = 0
    latencies = array("d")  # compact, so peak_rss_mb does not grow with the sample count
    window_tails = []
    check_ns = {m: [] for m in SIZES}
    # The check_m* probe, sizes interleaved, runs one check after each timed
    # step, and what is left after the loop; so no size and no stretch of the
    # run sits out a burst of host contention alone.
    probes = [(m, r % POOL) for r in range(max(PROBES.values()))
              for m, repeats in PROBES.items() if r < repeats] if bench.probe else []
    probes.reverse()

    def probe():
        m, idx = probes.pop()
        check_ns[m].append(bench.run_check(m, idx) * host.factor())

    i = rounds
    while raw < seconds * 1_000_000_000 or i % rounds or len(latencies) < bench.min_ops:
        step = bench.step(i)
        i += 1
        factor = host.factor()
        raw += step.busy_ns
        busy += step.busy_ns * factor
        scaled = [latency * factor for latency in step.latencies_ns]
        latencies.extend(scaled)
        for start in range(0, len(scaled) - TAIL_WINDOW + 1, TAIL_WINDOW):
            window_tails.append(stats.tail_percentile(scaled[start:start + TAIL_WINDOW]))
        if step.size:
            check_ns[step.size].append(step.busy_ns * factor)
        if probes:
            probe()
    while probes:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.final_checks()

    # Fuzz steps are cut into windows of TAIL_WINDOW trials, and the tail is
    # the median of the window tails, so a burst of host contention moves a
    # few windows, not the run.  Steps of one operation are pooled instead.
    if window_tails:
        tail = median([t[0] for t in window_tails])
        percentile, samples = window_tails[0][1], window_tails[0][2]
    else:
        tail, percentile, samples = stats.tail_percentile(latencies)
    meta.update(busy_s=raw * 1e-9, steps=i - rounds, ops=len(latencies),
                host_factor_median=median(host.factors),
                tail_percentile=percentile, tail_samples=samples,
                error_rate=bench.failed / bench.attempted)
    metrics = {
        "setup_s": (median(setup) * 1e-9, "s"),
        "ops_per_s": (len(latencies) / (busy * 1e-9), "1/s"),
        "latency_p50_ms": (median(latencies) * 1e-6, "ms"),
        "latency_tail_ms": (tail * 1e-6, "ms"),
    }
    for m in SIZES:
        metrics[f"check_m{m}_ms"] = (median(check_ns[m]) * 1e-6, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def traced_run(bench, meta: dict) -> dict:
    bench.setup()
    bench.step(0)  # warm-up, as in the timed run
    host = HostSpeed()
    steps = range(bench.trace_steps)
    untraced = sum(bench.step(i).busy_ns * host.factor() for i in steps)
    tracer = tracing.Tracer()
    tracer.install()
    traced = traced_raw = 0
    try:
        for i in steps:
            busy = bench.step(i).busy_ns
            traced_raw += busy
            traced += busy * host.factor()
    finally:
        tracer.uninstall()
    # Span times are raw; shares and counts do not depend on host speed.
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, traced_raw,
                                    bench.trace_steps * bench.ops_per_step)
    float_s, speedup = bench.float_lane()
    metrics["zonotope.volume_float_s"] = (float_s, "s")
    metrics["zonotope.float_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    bench.final_checks()
    spans_file = bench.work / "spans.csv"
    tracer.write(spans_file)
    meta.update(spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "zonomix" / "cli.py",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: run from a zonomix checkout; missing {', '.join(missing)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    bench = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    meta = {"workload": args.workload, "seed": args.seed,
            "program_seed": workloads.fuzz_seed(args.seed, 0),
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        metrics = traced_run(bench, meta)
        declared = spec["per_layer"]
    else:
        metrics = timed_run(bench, args.seconds, meta)
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        sys.stderr.write("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}\n")
        return 2

    for problem in bench.problems:
        sys.stderr.write(f"wrong output: {problem}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:30} {value} {unit}")
    print(f"{'failed/attempted':30} {bench.failed}/{bench.attempted}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
