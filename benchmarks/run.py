#!/usr/bin/env python3
"""swarmsched benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root; it imports the package from ./src:

    python3 benchmarks/run.py --workload tiny-8x3 --seed 1 --seconds 25 --trace 0

Workloads: tiny-8x3, paper-800x4, scale-5000x8 (see benchmarks/README.md).
One process, one call at a time: each call starts when the previous one has
ended. With --trace 0 the run sets up several times, then repeats timed calls
until --seconds of call time have passed (and at least the workload's quality
calls have run), and reports the end-to-end metrics. With --trace 1 it runs
the quality calls once plainly and once under the span tracer, and reports
the per-layer metrics. Every call's outputs are checked. The last line of
stdout is one JSON object; the exit code is 0 only if every check passed.

Timed sections are scaled to a nominal host speed by a reference kernel run
between them (calibrate.py), because the shared host's speed drifts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

# One thread per process: numpy's BLAS pool would otherwise contend for the
# host's few cores. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # span dumps, and each run's temporary inputs while it runs
SETUP_REPEATS = 5
# Imports swarmsched in a fresh interpreter and prints the seconds it took.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import swarmsched; "
                "print(time.perf_counter() - start)")
WORKLOADS = ("tiny-8x3", "paper-800x4", "scale-5000x8")

# The end-to-end metrics every workload reports; BENCHMARK.json lists these.
# The others are printed only: some exist on some workloads alone, cv_mean.hybrid
# varies too much from seed to seed, and opt_run_ms_p50 times the same cells as
# particle_evals_per_s with a median, which the machine's speed drift moves more.
END_TO_END = ("setup_s", "cells_per_s", "particle_evals_per_s", "makespan_over_lb.hybrid",
              "peak_rss_mb")
# p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100
HIT_TOLERANCE = 0.05  # acceptance criterion 1: within 5% of the exhaustive optimum


UNITS = {
    # end to end
    "setup_s": "s", "cells_per_s": "1/s", "particle_evals_per_s": "1/s",
    "opt_run_ms_p50": "ms", "opt_run_ms_p90": "ms", "opt_run_samples": "count",
    "opt_hit_rate": "ratio", "cv_mean.hybrid": "ratio", "failed_frac": "ratio",
    "peak_rss_mb": "MB", "host_slowdown": "ratio",
    **{f"makespan_over_lb.{s}": "ratio"
       for s in ("hybrid", "pso", "gwo", "minmin", "minmin-hybrid", "rr")},
    # per layer
    "optimizer.guidance_us": "us", "optimizer.velocity_us": "us", "optimizer.combine_us": "us",
    "optimizer.step_self_us": "us", "optimizer.diversity_us": "us", "optimizer.init_ms": "ms",
    "optimizer.mutations_per_run": "count", "optimizer.pbest_improve_ratio": "ratio",
    "encoding.map_us": "us", "encoding.map_ns_per_task": "ns", "encoding.reroute_ratio": "ratio",
    "encoding.first_breach_frac": "ratio", "encoding.clean_map_ratio": "ratio",
    "metrics.evaluate_us": "us", "metrics.evaluate_calls": "count",
    "domain.build_etc_us": "us", "harness.overhead_ms": "ms", "harness.ttest_us": "us",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in ("optimizer", "encoding", "metrics",
       "baselines", "domain", "workload", "harness", "cli")},
    # per layer, only on the workloads that reach the layer
    "baselines.min_min_ms": "ms", "workload.generate_ms": "ms", "workload.ingest_ms": "ms",
    "harness.write_ms": "ms", "cli.overhead_ms": "ms",
}


def load_program() -> None:
    """Import swarmsched from this checkout's sources, and no other copy."""
    if not (SRC / "swarmsched" / "__init__.py").is_file():
        raise RuntimeError(f"no swarmsched sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swarmsched

    if Path(swarmsched.__file__).resolve().parent != (SRC / "swarmsched").resolve():
        raise RuntimeError(f"imported swarmsched from {swarmsched.__file__}, not {SRC}")


def import_seconds(clock) -> float:
    """Median time of `import swarmsched` (numpy and scipy with it) in fresh interpreters.

    The first import may read cold files; the median of SETUP_REPEATS is the
    warm import a user pays on every start.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        raw = float(probe.stdout)
        times.append(raw * clock.scale(raw))
    return statistics.median(times)


def host() -> dict:
    """Context recorded next to the numbers; not metrics."""
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Tally:
    """Cells attempted and failed, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, cells: int, failures: dict) -> None:
        self.attempted += cells
        self.failed += len(failures)
        self.reasons += [f"{cell}: {why}" for cell, whys in failures.items() for why in whys]

    def fail_all(self, cells: int, reason: str) -> None:
        self.attempted += cells
        self.failed += cells
        self.reasons.append(reason)


def run_calls(workload, prepared, min_calls: int, seconds: float, tally: Tally,
              clock) -> list:
    """Closed loop of timed calls; every outcome is checked as it arrives."""
    from checks import check

    outcomes = []
    timed = 0.0
    cells = len(workload.spec.cells)
    while len(outcomes) < min_calls or timed < seconds:
        try:
            outcome, _, factor = clock.time(workload.call, prepared, len(outcomes))
        except Exception:  # a call that raises fails all its cells and ends the run
            tally.fail_all(cells, traceback.format_exc())
            break
        tally.add(cells, check(outcome))
        outcomes.append(dataclasses.replace(outcome, host_factor=factor))
        timed += outcome.wall_s
    return outcomes


def end_to_end(workload, outcomes: list, setup_s: float) -> dict[str, float]:
    """Throughput and latency over every call; quality over the quality calls."""
    from checks import OPTIMIZERS

    spec = workload.spec
    evals = spec.swarm * (spec.iterations + 1)  # initial swarm plus one per particle-step
    # Every time is scaled to the nominal host speed by its call's host factor.
    opt_ms = [rec["wall_ms"] * o.host_factor for o in outcomes for rec in o.records
              if rec["scheduler"] in OPTIMIZERS]
    # Rates are totals over totals, not medians over calls: what host drift the
    # calibration leaves moves a total smoothly, while a median flips.
    metrics = {
        "setup_s": setup_s,
        "cells_per_s": (sum(len(o.records) for o in outcomes)
                        / sum(o.wall_s * o.host_factor for o in outcomes)),
        "particle_evals_per_s": 1e3 * evals * len(opt_ms) / sum(opt_ms),
        "opt_run_ms_p50": statistics.median(opt_ms),
        "opt_run_samples": len(opt_ms),
    }
    if len(opt_ms) >= P90_MIN_SAMPLES:
        metrics["opt_run_ms_p90"] = statistics.quantiles(opt_ms, n=10)[-1]

    quality = outcomes[: spec.quality_calls]
    for scheduler in spec.schedulers:
        ratios = [rec["makespan_s"] / o.oracle.lower_bound(rec["replicate"])
                  for o in quality for rec in o.records if rec["scheduler"] == scheduler]
        metrics[f"makespan_over_lb.{scheduler}"] = statistics.fmean(ratios)
    hybrid = [(o, rec) for o in quality for rec in o.records if rec["scheduler"] == "hybrid"]
    metrics["cv_mean.hybrid"] = statistics.fmean(rec["cv"] for _, rec in hybrid)
    if quality[0].oracle.optimum is not None:
        metrics["opt_hit_rate"] = statistics.fmean(
            rec["makespan_s"] <= (1 + HIT_TOLERANCE) * o.oracle.optimum[rec["replicate"]] + 1e-12
            for o, rec in hybrid
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(workload, prepared, tally: Tally, spans_path: Path,
              clock) -> tuple[dict, dict]:
    """The quality calls once plainly, then once traced; the difference is overhead."""
    from swarmsched import baselines, cli, harness, optimizer
    from swarmsched.encoding import decode_position
    from tracing import Tracer

    calls = workload.spec.quality_calls
    plain = run_calls(workload, prepared, calls, 0.0, tally, clock)
    modules = {"cli": cli, "harness": harness, "optimizer": optimizer, "baselines": baselines}
    with Tracer(modules, decode_position) as tracer:
        traced = run_calls(workload, prepared, calls, 0.0, tally, clock)
    if len(traced) < calls or len(plain) < calls:
        return {}, {}
    common, partial = tracer.summary()
    common["trace.overhead_ratio"] = (
        sum(o.wall_s * o.host_factor for o in traced)
        / sum(o.wall_s * o.host_factor for o in plain) - 1.0
    )
    tracer.write(spans_path)
    return common, partial


def measure(workload, seed: int, seconds: float, trace: bool):
    """One benchmark run: (reported metrics, other metrics, tally)."""
    from calibrate import HostClock

    tally = Tally()
    clock = HostClock()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as scratch:
        import_s = 0.0 if trace else import_seconds(clock)
        setups = []
        for _ in range(SETUP_REPEATS):
            prepared, raw, factor = clock.time(workload.prepare, seed, Path(scratch))
            setups.append(raw * factor)
        if trace:
            spans = OUT / f"spans-{workload.name}-seed{seed}.npz"
            common, partial = per_layer(workload, prepared, tally, spans, clock)
            return common, {**partial, "host_slowdown": clock.slowdown}, tally
        outcomes = run_calls(workload, prepared, workload.spec.quality_calls, seconds, tally,
                             clock)
    if len(outcomes) < workload.spec.quality_calls:
        return {}, {}, tally
    metrics = end_to_end(workload, outcomes, import_s + statistics.median(setups))
    metrics["host_slowdown"] = clock.slowdown
    reported = {name: metrics.pop(name) for name in END_TO_END}
    return reported, metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        load_program()
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS as BY_NAME

    workload = BY_NAME[args.workload]
    reported, other, tally = measure(workload, args.seed, args.seconds, bool(args.trace))

    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    print(f"# host {json.dumps(host(), sort_keys=True)}")
    for name, value in {**reported, **other}.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    failed_frac = tally.failed / tally.attempted
    print(f"failed_frac = {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted} cells)")
    for reason in tally.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
