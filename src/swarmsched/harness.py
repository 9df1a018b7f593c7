"""Experiment harness: replicated scheduler comparisons with seeds, stats, files."""

from __future__ import annotations

import csv
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, make_dataclass, replace
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import IO, Sequence

import numpy as np
from scipy.special import betainc

from .baselines import min_min, minmin_seeded_hybrid, round_robin, seeded_random
from .domain import VmSpec, Workload, build_etc, check_integer
from .metrics import MetricsReport, evaluate_assignment
from .optimizer import ConvergenceLog, OptimizerConfig, run, run_pure_gwo, run_pure_pso
from .workload import DEFAULT_SCALE_MI_PER_CORE_S, SyntheticSpec, generate_synthetic, ingest_trace

__all__ = [
    "ALGORITHMS",
    "SyntheticSource",
    "TraceSource",
    "ExperimentPlan",
    "RunRecord",
    "MetricStats",
    "AggregateResult",
    "TTestResult",
    "PairwiseComparison",
    "ExperimentResult",
    "RAW_CSV_HEADER",
    "TTEST_METRICS",
    "run_scheduler",
    "scheduler_seed",
    "workload_seed",
    "replicate_workloads",
    "run_experiment",
    "paired_t_test",
    "write_raw_csv",
    "aggregates_payload",
    "ttests_payload",
    "write_aggregates_json",
    "write_ttests_json",
    "write_convergence_csvs",
]

ALGORITHMS = ("hybrid", "pso", "gwo", "rr", "minmin", "minmin-hybrid", "random")

TTEST_METRICS = ("makespan_s", "throughput_tps", "cv")

# Disjoint tags so scheduler seeds and workload seeds never collide.
_SCHEDULER_STREAM = 1
_WORKLOAD_STREAM = 2


@dataclass(frozen=True)
class SyntheticSource:
    """Per-replicate synthetic workloads: same sizes, fresh lengths each replicate."""

    n: int = 800
    min_length_mi: float = 100.0
    max_length_mi: float = 1000.0


@dataclass(frozen=True)
class TraceSource:
    """A fixed trace workload shared by every replicate."""

    path: str
    limit: int = 800
    scale_mi_per_core_s: float = DEFAULT_SCALE_MI_PER_CORE_S


@dataclass(frozen=True)
class ExperimentPlan:
    workload_source: SyntheticSource | TraceSource
    fleet: tuple[VmSpec, ...]
    schedulers: tuple[str, ...]
    replicates: int = 30
    root_seed: int = 0
    config: OptimizerConfig = OptimizerConfig()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fleet", tuple(self.fleet))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        check_integer("replicates", self.replicates)
        check_integer("root_seed", self.root_seed)
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not self.schedulers:
            raise ValueError("plan needs at least one scheduler")
        for name in self.schedulers:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown scheduler '{name}'; valid: {', '.join(ALGORITHMS)}"
                )
        if len(set(self.schedulers)) != len(self.schedulers):
            raise ValueError("duplicate scheduler in plan")
        if self.root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {self.root_seed}")


# The classes built from MetricsReport's fields name this module, not "types"
# (make_dataclass's default before Python 3.12), so worker processes can pickle them.
_IN_THIS_MODULE = {"__module__": __name__}

RunRecord = make_dataclass(
    "RunRecord",
    [
        ("scheduler", str),
        ("replicate", int),
        ("seed", int),
        *((field.name, field.type) for field in fields(MetricsReport)),
        ("wall_ms", float),
    ],
    frozen=True,
    namespace={**_IN_THIS_MODULE, "__doc__": "One (scheduler, replicate) cell of an experiment."},
)

RAW_CSV_HEADER = tuple(field.name for field in fields(RunRecord))


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    median: float


# Every metric but fitness, which raw.csv records per run, is aggregated.
_AGGREGATED_METRICS = tuple(
    field.name for field in fields(MetricsReport) if field.name != "fitness"
)

AggregateResult = make_dataclass(
    "AggregateResult",
    [*((metric, MetricStats) for metric in _AGGREGATED_METRICS), ("wall_ms_mean", float)],
    frozen=True,
    namespace=_IN_THIS_MODULE,
)


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


@dataclass(frozen=True)
class PairwiseComparison:
    metric: str
    a: str
    b: str
    mean_diff: float  # mean(a - b): negative means a is lower on this metric
    ttest: TTestResult


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    records: tuple[RunRecord, ...]
    aggregates: dict[str, AggregateResult]
    comparisons: tuple[PairwiseComparison, ...]
    convergence: dict[tuple[str, int], ConvergenceLog]


def scheduler_seed(root_seed: int, scheduler: str, replicate: int) -> int:
    """64-bit run seed, injective over (scheduler, replicate) within a plan."""
    return _derive_seed(root_seed, _SCHEDULER_STREAM, ALGORITHMS.index(scheduler), replicate)


def workload_seed(root_seed: int, replicate: int) -> int:
    """64-bit workload seed: every scheduler sees the same workload per replicate."""
    return _derive_seed(root_seed, _WORKLOAD_STREAM, replicate)


def _derive_seed(*path: int) -> int:
    return int(np.random.SeedSequence(path).generate_state(1, dtype=np.uint64)[0])


def run_scheduler(
    name: str,
    workload: Workload,
    fleet: Sequence[VmSpec],
    config: OptimizerConfig,
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog | None]:
    """Run one scheduler by registry name. Deterministic ones produce no log."""
    if name == "hybrid":
        return run(workload, fleet, config)
    if name == "pso":
        return run_pure_pso(workload, fleet, config)
    if name == "gwo":
        return run_pure_gwo(workload, fleet, config)
    if name == "minmin-hybrid":
        return minmin_seeded_hybrid(workload, fleet, config)
    if name in ("rr", "minmin", "random"):
        etc = build_etc(workload, fleet)
        if name == "rr":
            assignment = round_robin(workload, fleet)
        elif name == "minmin":
            assignment = min_min(workload, fleet)
        else:
            assignment = seeded_random(workload, fleet, config.seed)
        return assignment, evaluate_assignment(assignment, etc, config.resolve(etc).beta), None
    raise ValueError(f"unknown scheduler '{name}'; valid: {', '.join(ALGORITHMS)}")


def _execute_cell(
    args: tuple[str, int, Workload, tuple[VmSpec, ...], OptimizerConfig],
) -> tuple[RunRecord, ConvergenceLog | None]:
    name, replicate, workload, fleet, config = args
    start = perf_counter()
    _, report, log = run_scheduler(name, workload, fleet, config)
    wall_ms = (perf_counter() - start) * 1000.0
    record = RunRecord(scheduler=name, replicate=replicate, seed=config.seed, **asdict(report),
                       wall_ms=wall_ms)
    return record, log


def replicate_workloads(
    source: SyntheticSource | TraceSource, root_seed: int, replicates: int
) -> list[Workload]:
    """The workload of each replicate: fresh synthetic lengths, or one shared trace."""
    if isinstance(source, TraceSource):
        fixed = ingest_trace(source.path, source.limit, source.scale_mi_per_core_s)
        return [fixed] * replicates
    return [
        generate_synthetic(
            SyntheticSpec(
                source.n,
                source.min_length_mi,
                source.max_length_mi,
                workload_seed(root_seed, r),
            )
        )
        for r in range(replicates)
    ]


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Run every (scheduler, replicate) cell, aggregate, and t-test all pairs.

    Replicate r of scheduler s is seeded from (root_seed, s, r). Cells are
    independent, so jobs > 1 spreads them over worker processes; results are
    assembled in plan order either way, making output independent of
    completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workloads = replicate_workloads(plan.workload_source, plan.root_seed, plan.replicates)
    cells = [
        (
            name,
            r,
            workloads[r],
            plan.fleet,
            replace(plan.config, seed=scheduler_seed(plan.root_seed, name, r)),
        )
        for name in plan.schedulers
        for r in range(plan.replicates)
    ]
    workers = min(jobs, len(cells))  # a pool starts all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_cell, cells))
    else:
        outcomes = [_execute_cell(cell) for cell in cells]

    records = tuple(record for record, _ in outcomes)
    convergence = {
        (record.scheduler, record.replicate): log
        for record, log in outcomes
        if log is not None
    }

    # One (scheduler, replicate) matrix per metric. The cells run
    # scheduler-major in plan order, so row s holds scheduler s's replicates.
    shape = (len(plan.schedulers), plan.replicates)
    matrices = {
        metric: np.array([getattr(record, metric) for record in records]).reshape(shape)
        for metric in (*_AGGREGATED_METRICS, "wall_ms")
    }

    def stats(row: np.ndarray) -> MetricStats:
        # population std: with one replicate the spread is identically zero
        return MetricStats(float(row.mean()), float(row.std()), float(np.median(row)))

    aggregates = {
        name: AggregateResult(
            *(stats(matrices[metric][s]) for metric in _AGGREGATED_METRICS),
            wall_ms_mean=float(matrices["wall_ms"][s].mean()),
        )
        for s, name in enumerate(plan.schedulers)
    }

    comparisons = []
    if plan.replicates > 1:
        for metric in TTEST_METRICS:
            matrix = matrices[metric]
            for (i, a), (j, b) in combinations(enumerate(plan.schedulers), 2):
                comparisons.append(
                    PairwiseComparison(
                        metric=metric,
                        a=a,
                        b=b,
                        mean_diff=float((matrix[i] - matrix[j]).mean()),
                        ttest=paired_t_test(matrix[i], matrix[j]),
                    )
                )
    return ExperimentResult(plan, records, aggregates, tuple(comparisons), convergence)


def paired_t_test(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> TTestResult:
    """Two-sided paired t-test on per-replicate differences d = a - b.

    t = mean(d) / (sd(d) / sqrt(R)) with the sample standard deviation
    (R - 1 denominator) and R - 1 degrees of freedom. The p-value comes from
    the exact t-distribution CDF via the regularized incomplete beta, not a
    normal approximation. Degenerate zero-spread differences: p = 1 when the
    mean difference is 0, else p = 0.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1:
        raise ValueError("paired t-test needs two equal-length 1-D samples")
    n = a_arr.shape[0]
    if n < 2:
        raise ValueError(f"paired t-test needs at least 2 pairs, got {n}")
    diff = a_arr - b_arr
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    df = n - 1
    if sd == 0:
        if mean == 0:
            t_stat, p_value = 0.0, 1.0
        else:
            t_stat, p_value = math.copysign(math.inf, mean), 0.0
    else:
        t_stat = mean / (sd / math.sqrt(n))
        p_value = float(betainc(df / 2.0, 0.5, df / (df + t_stat * t_stat)))
    return TTestResult(t_statistic=t_stat, degrees_of_freedom=df, p_value=p_value)


def write_raw_csv(records: Sequence[RunRecord], fh: IO[str]) -> None:
    """One row per (scheduler, replicate), in experiment order."""
    writer = csv.writer(fh)
    writer.writerow(RAW_CSV_HEADER)
    writer.writerows(astuple(record) for record in records)


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf'/'-inf'/'nan': strict JSON has no literals for these
    return value


def aggregates_payload(result: ExperimentResult) -> dict:
    return {
        "replicates": result.plan.replicates,
        "root_seed": result.plan.root_seed,
        "schedulers": {name: _jsonable(asdict(agg)) for name, agg in result.aggregates.items()},
    }


def ttests_payload(result: ExperimentResult) -> dict:
    comparisons = []
    for comparison in result.comparisons:
        row = asdict(comparison)
        row.update(row.pop("ttest"))
        comparisons.append(_jsonable(row))
    return {"metrics": list(TTEST_METRICS), "comparisons": comparisons}


def write_aggregates_json(result: ExperimentResult, fh: IO[str]) -> None:
    json.dump(aggregates_payload(result), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def write_ttests_json(result: ExperimentResult, fh: IO[str]) -> None:
    json.dump(ttests_payload(result), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


# The name write_convergence_csvs gives a log's file.
_CONVERGENCE_CSV = re.compile(rf"({'|'.join(map(re.escape, ALGORITHMS))})_rep\d{{3,}}\.csv")


def write_convergence_csvs(result: ExperimentResult, directory: str | Path) -> list[Path]:
    """One CSV per (scheduler, replicate) that produced an iteration log.

    Files in the directory with such a name that this call did not write,
    left by an earlier experiment, are removed, so the directory holds
    exactly this experiment's logs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for (scheduler, replicate), log in sorted(result.convergence.items()):
        path = directory / f"{scheduler}_rep{replicate:03d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            log.write_csv(fh)
        written.append(path)
    for path in directory.iterdir():
        if _CONVERGENCE_CSV.fullmatch(path.name) and path not in written:
            path.unlink()
    return written
