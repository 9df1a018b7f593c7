"""Command-line front end: one-shot scheduling, benchmarking, trace inspection."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

import numpy as np
import scipy

from . import __version__
from .domain import VmSpec
from .harness import (
    ALGORITHMS,
    ExperimentPlan,
    SyntheticSource,
    TraceSource,
    replicate_workloads,
    run_experiment,
    run_scheduler,
    scheduler_seed,
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
    ingest_trace,
    standard_fleet,
)

__all__ = ["main", "build_parser", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "SWARMSCHED_OUT"

# The optimizer knobs are OptimizerConfig's fields, each with the type its
# value has when set (an optional knob's None means "resolve per problem").
# Its own seed is not a knob: each run's seed derives from the root seed.
_KNOB_KINDS: dict[str, type] = {
    name: next(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
    for name, hint in get_type_hints(OptimizerConfig).items()
    if name != "seed"
}

# The knobs whose flag is not the dashed field name, and the knobs' help.
_KNOB_FLAGS = {"swarm_size": "--swarm", "max_iterations": "--iterations", "headroom_theta": "--theta"}
_KNOB_HELP = {
    "headroom_theta": "capacity headroom multiplier",
    "d_min": "diversity floor below which the swarm is mutated; 0 switches mutation off",
}

# Every key a config file may set, with its fully-resolved default.
# Precedence: these defaults < config file < command-line flags.
DEFAULTS: dict = {
    "tasks": 800,
    "vms": 4,
    "mips": None,
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
    **{field.name: field.default for field in dataclasses.fields(OptimizerConfig)
       if field.name in _KNOB_KINDS},
    "convergence_csv": None,
    "input": None,
    "export": None,
}

_CONFIG_KEYS = frozenset(DEFAULTS)


def _help(text: str, key: str) -> str:
    """A flag's help text, if any, ending in the key's default from DEFAULTS."""
    return f"{text} (default {DEFAULTS[key]:g})".lstrip()


class UsageError(Exception):
    """Bad invocation: reported like an argparse error, exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    # each flag is declared once, on the parent of the commands that take it
    trace_flags = argparse.ArgumentParser(add_help=False)
    trace_flags.add_argument("--limit", type=int, default=None,
                             help=_help("trace records to ingest", "limit"))
    trace_flags.add_argument("--scale", dest="scale_mi_per_core_s", type=float, default=None,
                             help=_help("MI per core-second of trace work", "scale_mi_per_core_s"))

    run = argparse.ArgumentParser(add_help=False, parents=[trace_flags])
    run.add_argument("--tasks", type=int, default=None,
                     help=_help("synthetic task count", "tasks"))
    fleet = run.add_mutually_exclusive_group()
    fleet.add_argument("--vms", type=int, default=None,
                       help=_help("fleet size, in identical 1000-MIPS VMs", "vms"))
    fleet.add_argument("--mips", default=None,
                       help="comma-separated VM speeds in MIPS, one VM each; instead of --vms")
    run.add_argument("--min-length", dest="min_length_mi", type=float, default=None,
                     help=_help("synthetic minimum length in MI", "min_length_mi"))
    run.add_argument("--max-length", dest="max_length_mi", type=float, default=None,
                     help=_help("synthetic maximum length in MI", "max_length_mi"))
    run.add_argument("--trace", default=None, help="use a trace CSV instead of synthetic tasks")
    for name, kind in _KNOB_KINDS.items():
        flag = _KNOB_FLAGS.get(name, "--" + name.replace("_", "-"))
        text = _KNOB_HELP.get(name, "")
        if DEFAULTS[name] is not None:  # the others resolve per problem
            text = _help(text, name)
        run.add_argument(flag, dest=name, type=kind, default=None, help=text or None)
    run.add_argument("--seed", type=int, default=None, help=_help("root seed", "seed"))
    run.add_argument("--config", default=None, help="JSON config file or a previous manifest")

    parser = argparse.ArgumentParser(
        prog="swarmsched",
        description="Swarm-based cloud task scheduling: one-shot runs, benchmarks, traces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule", parents=[run],
                              help="schedule one workload and print metrics JSON")
    schedule.add_argument("--algo", required=True, choices=ALGORITHMS)
    schedule.add_argument(
        "--convergence-csv",
        dest="convergence_csv",
        default=None,
        help="write the per-iteration log here (header only for one-shot schedulers)",
    )

    bench = sub.add_parser("bench", parents=[run], help="replicated comparison across schedulers")
    bench.add_argument(
        "--algos",
        default=None,
        help=f"comma-separated subset of: {', '.join(ALGORITHMS)} "
        f"(default {DEFAULTS['algos']})",
    )
    bench.add_argument("--replicates", type=int, default=None,
                       help=_help("runs per scheduler", "replicates"))
    bench.add_argument(
        "--out",
        default=None,
        help=f"output directory; if unset, ${OUTPUT_DIR_ENV} or else ./swarmsched-out",
    )
    bench.add_argument("--jobs", type=int, default=None,
                       help=_help("max parallel workers", "jobs"))

    trace = sub.add_parser("trace", parents=[trace_flags], help="inspect or re-export a trace CSV")
    trace.add_argument("--input", required=True, help="trace CSV path")
    trace.add_argument("--export", default=None, help="write the ingested workload back as CSV")
    return parser


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
    if isinstance(value, list):
        item = {"algos": str, "mips": (int, float)}.get(key)
        return item is not None and all(
            isinstance(x, item) and not isinstance(x, bool) for x in value
        )
    kind = _KNOB_KINDS.get(key) or (str if default is None else type(default))
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
    if getattr(args, "vms", None) is not None:
        settings["mips"] = None  # an explicit --vms beats a config file's mips
    for key in ("limit", "replicates", "jobs", "tasks", "vms"):
        if settings[key] < 1:
            raise UsageError(f"--{key} must be >= 1, got {settings[key]}")
    if settings["mips"] is not None:
        settings["mips"] = _parse_mips(settings["mips"])
        settings["vms"] = len(settings["mips"])
    if not 0 < settings["scale_mi_per_core_s"] < math.inf:
        raise UsageError(
            f"--scale must be finite and positive, got {settings['scale_mi_per_core_s']}"
        )
    # the config and spec constructors validate the remaining values, and
    # their messages name the offending field, which is also the key; the
    # synthetic keys are checked under --trace too, as the manifest records them
    try:
        _settings_config(settings, seed=settings["seed"])
        SyntheticSpec(settings["tasks"], settings["min_length_mi"], settings["max_length_mi"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return settings


def _parse_mips(value: str | list) -> list[float]:
    """The VM speeds of a --mips flag ("500,1000") or a mips config list."""
    try:
        speeds = [float(x) for x in (value.split(",") if isinstance(value, str) else value)]
    except ValueError:
        raise UsageError(
            f"--mips must be a comma-separated list of numbers, got {value!r}"
        ) from None
    # the manifest is strict JSON, so no speed may be infinite either
    if not speeds or not all(0 < speed < math.inf for speed in speeds):
        raise UsageError(f"--mips must list one or more finite positive speeds, got {value!r}")
    return speeds


def _fleet(settings: dict) -> tuple[VmSpec, ...]:
    """The fleet --mips lists, or else --vms identical VMs."""
    if settings["mips"] is None:
        return standard_fleet(settings["vms"])
    return tuple(VmSpec(j, speed) for j, speed in enumerate(settings["mips"]))


def _settings_config(settings: dict, seed: int) -> OptimizerConfig:
    return OptimizerConfig(**{name: settings[name] for name in _KNOB_KINDS}, seed=seed)


def _workload_source(settings: dict) -> SyntheticSource | TraceSource:
    if settings["trace"]:
        return TraceSource(settings["trace"], settings["limit"], settings["scale_mi_per_core_s"])
    return SyntheticSource(settings["tasks"], settings["min_length_mi"], settings["max_length_mi"])


def _build_manifest(settings: dict) -> dict:
    config = {key: settings[key] for key in sorted(DEFAULTS)}
    return {
        "tool": "swarmsched",
        "version": __version__,
        "command": "bench",
        "root_seed": settings["seed"],
        "config": config,
        # what a replay on another machine may differ in; ignored by --config
        "environment": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }


def cmd_schedule(settings: dict) -> int:
    algo = settings["algo"]
    fleet = _fleet(settings)
    root_seed = settings["seed"]
    workload = replicate_workloads(_workload_source(settings), root_seed, 1)[0]
    config = _settings_config(settings, seed=scheduler_seed(root_seed, algo, 0))
    _, report, log = run_scheduler(algo, workload, fleet, config)
    payload = {
        "algorithm": algo,
        "tasks": len(workload),
        "vms": len(fleet),
        "seed": root_seed,
        **dataclasses.asdict(report),
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
    source = _workload_source(settings)
    fleet = _fleet(settings)
    config = _settings_config(settings, seed=settings["seed"])
    try:
        plan = ExperimentPlan(source, fleet, tuple(algos), replicates=settings["replicates"],
                              root_seed=settings["seed"], config=config)
    except ValueError as exc:
        raise UsageError(f"--algos: {exc}") from None
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
        json.dump(_build_manifest(manifest_settings), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")

    for name in plan.schedulers:
        agg = result.aggregates[name]
        print(
            f"{name}: makespan_s mean={agg.makespan_s.mean:.4f} "
            f"median={agg.makespan_s.median:.4f} cv mean={agg.cv.mean:.4f}"
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
