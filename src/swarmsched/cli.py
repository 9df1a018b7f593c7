"""Command-line front end: one-shot scheduling, benchmarking, trace inspection."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .harness import (
    ALGORITHMS,
    ExperimentPlan,
    SyntheticSource,
    TraceSource,
    run_experiment,
    run_scheduler,
    scheduler_seed,
    workload_seed,
    write_aggregates_json,
    write_convergence_csvs,
    write_raw_csv,
    write_ttests_json,
)
from .optimizer import ConvergenceLog, OptimizerConfig
from .workload import (
    DEFAULT_SCALE_MI_PER_CORE_S,
    SyntheticSpec,
    export_trace_csv,
    generate_synthetic,
    ingest_trace,
    standard_fleet,
)

__all__ = ["main", "build_parser", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "SWARMSCHED_OUT"

# Every knob a config file may set, with its fully-resolved default.
# Precedence: these defaults < config file < command-line flags.
DEFAULTS: dict = {
    "tasks": 800,
    "vms": 4,
    "min_length_mi": 100.0,
    "max_length_mi": 1000.0,
    "trace": None,
    "limit": 800,
    "scale_mi_per_core_s": DEFAULT_SCALE_MI_PER_CORE_S,
    "algo": None,
    "algos": "hybrid,pso,gwo,minmin,rr",
    "replicates": 30,
    "seed": 0,
    "jobs": 1,
    "out": None,
    "swarm_size": 20,
    "max_iterations": 50,
    "lambda_max": 0.9,
    "lambda_min": 0.4,
    "inertia": 0.7,
    "c1": 1.5,
    "c2": 1.5,
    "v_max": None,
    "d_min": None,
    "mutation_sigma_scale": None,
    "beta": None,
    "headroom_theta": 1.2,
    "diversity_control": True,
    "blend_weight_on_pso": False,
    "convergence_csv": None,
    "input": None,
    "export": None,
}

_CONFIG_KEYS = frozenset(DEFAULTS)

# Keys whose default is None but whose value, when set, is a number; every
# other None-default key holds a path or a name.
_OPTIONAL_FLOATS = frozenset({"v_max", "d_min", "mutation_sigma_scale", "beta"})


class UsageError(Exception):
    """Bad invocation: reported like an argparse error, exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsched",
        description="Swarm-based cloud task scheduling: one-shot runs, benchmarks, traces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule", help="schedule one workload and print metrics JSON")
    schedule.add_argument("--algo", required=True, choices=ALGORITHMS)
    _add_workload_flags(schedule)
    _add_optimizer_flags(schedule)
    schedule.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    schedule.add_argument("--config", default=None, help="JSON config file (flat keys)")
    schedule.add_argument(
        "--convergence-csv",
        dest="convergence_csv",
        default=None,
        help="write the per-iteration log here (header only for one-shot schedulers)",
    )

    bench = sub.add_parser("bench", help="replicated comparison across schedulers")
    bench.add_argument(
        "--algos",
        default=None,
        help=f"comma-separated subset of: {', '.join(ALGORITHMS)} "
        f"(default {DEFAULTS['algos']})",
    )
    _add_workload_flags(bench)
    _add_optimizer_flags(bench)
    bench.add_argument("--replicates", type=int, default=None, help="runs per scheduler (default 30)")
    bench.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    bench.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUTPUT_DIR_ENV} or ./swarmsched-out)",
    )
    bench.add_argument("--jobs", type=int, default=None, help="max parallel workers (default 1)")
    bench.add_argument("--config", default=None, help="JSON config file or a previous manifest")

    trace = sub.add_parser("trace", help="inspect or re-export a trace CSV")
    trace.add_argument("--input", required=True, help="trace CSV path")
    trace.add_argument("--limit", type=int, default=None, help="records to ingest (default 800)")
    trace.add_argument("--scale", dest="scale_mi_per_core_s", type=float, default=None,
                       help="MI per core-second (default 1000)")
    trace.add_argument("--export", default=None, help="write the ingested workload back as CSV")
    return parser


def _add_workload_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tasks", type=int, default=None, help="synthetic task count (default 800)")
    sub.add_argument("--vms", type=int, default=None, help="fleet size (default 4)")
    sub.add_argument("--min-length", dest="min_length_mi", type=float, default=None,
                     help="synthetic minimum length in MI (default 100)")
    sub.add_argument("--max-length", dest="max_length_mi", type=float, default=None,
                     help="synthetic maximum length in MI (default 1000)")
    sub.add_argument("--trace", default=None, help="use a trace CSV instead of synthetic tasks")
    sub.add_argument("--limit", type=int, default=None, help="trace records to ingest (default 800)")
    sub.add_argument("--scale", dest="scale_mi_per_core_s", type=float, default=None,
                     help="MI per core-second of trace work (default 1000)")


def _add_optimizer_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--swarm", dest="swarm_size", type=int, default=None)
    sub.add_argument("--iterations", dest="max_iterations", type=int, default=None)
    sub.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sub.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sub.add_argument("--inertia", type=float, default=None)
    sub.add_argument("--c1", type=float, default=None)
    sub.add_argument("--c2", type=float, default=None)
    sub.add_argument("--v-max", dest="v_max", type=float, default=None)
    sub.add_argument("--d-min", dest="d_min", type=float, default=None)
    sub.add_argument("--mutation-sigma-scale", dest="mutation_sigma_scale", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--theta", dest="headroom_theta", type=float, default=None,
                     help="capacity headroom multiplier (default 1.2)")
    sub.add_argument("--no-diversity-control", dest="diversity_control",
                     action="store_false", default=None)
    sub.add_argument("--blend-weight-on-pso", dest="blend_weight_on_pso",
                     action="store_true", default=None,
                     help="apply the blend weight to the velocity term instead of the guidance term")


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict) and "tool" in data:
        data = data["config"]  # a previous run's manifest works as a config file
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys in {path}: {', '.join(unknown)}")
    for key, value in data.items():
        if not _config_value_ok(key, value):
            raise UsageError(
                f"config key {key} in {path} has the wrong type: {value!r} ({type(value).__name__})"
            )
    return data


def _config_value_ok(key: str, value: object) -> bool:
    """Does a config file value have the type of the key's default?"""
    default = DEFAULTS[key]
    if value is None:
        return default is None
    if key == "algos" and isinstance(value, list):
        return all(isinstance(name, str) for name in value)
    if default is None:
        kind = float if key in _OPTIONAL_FLOATS else str
    else:
        kind = type(default)
    if isinstance(value, bool):  # bool is a subclass of int
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def resolve_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_load_config_file(config_path))
    for key, value in vars(args).items():
        if key in settings and value is not None:
            settings[key] = value
    for key in ("limit", "replicates", "jobs", "tasks", "vms"):
        if settings[key] is not None and settings[key] < 1:
            raise UsageError(f"--{key} must be >= 1, got {settings[key]}")
    if not settings["scale_mi_per_core_s"] > 0:
        raise UsageError(f"--scale must be positive, got {settings['scale_mi_per_core_s']}")
    # the config and spec constructors validate the remaining values, and
    # their messages name the offending field, which is also the key
    try:
        _settings_config(settings, seed=settings["seed"])
        if not settings["trace"]:
            SyntheticSpec(settings["tasks"], settings["min_length_mi"], settings["max_length_mi"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return settings


def _settings_config(settings: dict, seed: int) -> OptimizerConfig:
    return OptimizerConfig(
        swarm_size=settings["swarm_size"],
        max_iterations=settings["max_iterations"],
        lambda_max=settings["lambda_max"],
        lambda_min=settings["lambda_min"],
        inertia=settings["inertia"],
        c1=settings["c1"],
        c2=settings["c2"],
        v_max=settings["v_max"],
        d_min=settings["d_min"],
        mutation_sigma_scale=settings["mutation_sigma_scale"],
        beta=settings["beta"],
        headroom_theta=settings["headroom_theta"],
        diversity_control=bool(settings["diversity_control"]),
        blend_weight_on_pso=bool(settings["blend_weight_on_pso"]),
        seed=seed,
    )


def _build_manifest(command: str, settings: dict) -> dict:
    config = {key: settings[key] for key in sorted(DEFAULTS)}
    return {
        "tool": "swarmsched",
        "version": __version__,
        "command": command,
        "root_seed": settings["seed"],
        "config": config,
    }


def cmd_schedule(settings: dict) -> int:
    algo = settings["algo"]
    fleet = standard_fleet(settings["vms"])
    root_seed = settings["seed"]
    if settings["trace"]:
        workload = ingest_trace(
            settings["trace"], settings["limit"], settings["scale_mi_per_core_s"]
        )
    else:
        workload = generate_synthetic(
            SyntheticSpec(
                settings["tasks"],
                settings["min_length_mi"],
                settings["max_length_mi"],
                workload_seed(root_seed, 0),
            )
        )
    config = _settings_config(settings, seed=scheduler_seed(root_seed, algo, 0))
    _, report, log = run_scheduler(algo, workload, fleet, config)
    payload = {
        "algorithm": algo,
        "tasks": len(workload),
        "vms": len(fleet),
        "seed": root_seed,
        "makespan_s": report.makespan_s,
        "throughput_tps": report.throughput_tps,
        "cv": report.cv,
        "boi": report.boi,
        "fitness": report.fitness,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if settings["convergence_csv"]:
        with open(settings["convergence_csv"], "w", newline="", encoding="utf-8") as fh:
            (log if log is not None else ConvergenceLog()).write_csv(fh)
    return 0


def cmd_bench(settings: dict) -> int:
    algos = settings["algos"]
    if isinstance(algos, str):
        algos = tuple(name.strip() for name in algos.split(",") if name.strip())
    unknown = [name for name in algos if name not in ALGORITHMS]
    if unknown:
        raise UsageError(
            f"unknown scheduler(s) {', '.join(unknown)}; valid: {', '.join(ALGORITHMS)}"
        )
    if settings["trace"]:
        source = TraceSource(
            settings["trace"], settings["limit"], settings["scale_mi_per_core_s"]
        )
    else:
        source = SyntheticSource(
            settings["tasks"], settings["min_length_mi"], settings["max_length_mi"]
        )
    plan = ExperimentPlan(
        workload_source=source,
        fleet=standard_fleet(settings["vms"]),
        schedulers=tuple(algos),
        replicates=settings["replicates"],
        root_seed=settings["seed"],
        config=_settings_config(settings, seed=settings["seed"]),
    )
    result = run_experiment(plan, jobs=settings["jobs"])

    out_dir = Path(
        settings["out"] or os.environ.get(OUTPUT_DIR_ENV) or "swarmsched-out"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "raw.csv", "w", newline="", encoding="utf-8") as fh:
        write_raw_csv(result.records, fh)
    with open(out_dir / "aggregates.json", "w", encoding="utf-8") as fh:
        write_aggregates_json(result, fh)
    with open(out_dir / "ttests.json", "w", encoding="utf-8") as fh:
        write_ttests_json(result, fh)
    write_convergence_csvs(result, out_dir / "convergence")
    # settings["algos"] may have arrived as a list from a config file; store
    # the canonical comma-joined form so the manifest replays identically
    manifest_settings = dict(settings, algos=",".join(algos))
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(_build_manifest("bench", manifest_settings), fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name in plan.schedulers:
        agg = result.aggregates[name]
        score = "-" if agg.overall_score is None else f"{agg.overall_score:.3f}"
        print(
            f"{name}: makespan_s mean={agg.makespan_s.mean:.4f} "
            f"median={agg.makespan_s.median:.4f} cv mean={agg.cv.mean:.4f} score={score}"
        )
    print(f"wrote {out_dir}")
    return 0


def cmd_trace(settings: dict) -> int:
    workload = ingest_trace(
        settings["input"], settings["limit"], settings["scale_mi_per_core_s"]
    )
    lengths = workload.lengths_mi()
    print(f"tasks: {len(workload)}")
    print(
        f"length_mi: min={lengths.min():.6g} mean={lengths.mean():.6g} max={lengths.max():.6g}"
    )
    if settings["export"]:
        export_trace_csv(workload, settings["export"], settings["scale_mi_per_core_s"])
        print(f"wrote {settings['export']}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    try:
        settings = resolve_settings(args)
        if args.command == "schedule":
            return cmd_schedule(settings)
        if args.command == "bench":
            return cmd_bench(settings)
        return cmd_trace(settings)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: I/O, parsing, bad values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
