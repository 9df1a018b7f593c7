"""Output checks for the benchmark, independent of the code under test.

Each check returns the cells it finds wrong; a cell is one
(scheduler, replicate) pair of an experiment. The oracle quantities
(imbalance weight, lower bound, exhaustive optimum) are recomputed here
from the task lengths and VM speeds with plain numpy, so a defect in the
program's own helpers cannot hide itself.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

# Metrics the harness t-tests for every scheduler pair, as the README states.
TTEST_METRICS = ("makespan_s", "throughput_tps", "cv")
OPTIMIZERS = frozenset({"hybrid", "pso", "gwo", "minmin-hybrid"})
REL_TOL = 1e-9
# betainc (program) and the t-distribution survival function (scipy) agree to
# far better than this; the slack only covers extreme tails.
P_VALUE_REL_TOL = 1e-6


@dataclass(frozen=True)
class Oracle:
    """What a correct run must be consistent with, per replicate."""

    lengths: tuple[np.ndarray, ...]  # task lengths in MI, one array per replicate
    mips: np.ndarray
    optimum: tuple[float, ...] | None = None  # exhaustive best makespan, small cases only

    def lower_bound(self, replicate: int) -> float:
        """Makespan if the total work were split perfectly by speed."""
        return float(self.lengths[replicate].sum() / self.mips.sum())

    def beta(self, replicate: int) -> float:
        """Imbalance weight the optimizer defaults to: half of mean(ETC) * n / m."""
        etc = self.lengths[replicate][:, None] / self.mips[None, :]
        return 0.5 * float(etc.mean()) * etc.shape[0] / etc.shape[1]


@dataclass(frozen=True)
class Outcome:
    """What one timed call produced, in a form every workload shares."""

    wall_s: float
    expected: tuple[tuple[str, int], ...]  # every (scheduler, replicate) cell the call ran
    records: tuple[dict, ...]  # raw.csv rows, numeric fields as numbers
    logs: dict  # (scheduler, replicate) -> best_fitness series
    comparisons: tuple[dict, ...]  # metric, a, b, p_value
    oracle: Oracle
    host_factor: float = 1.0  # scales wall_s and each wall_ms to the nominal host speed


def exhaustive_makespans(workloads: tuple[np.ndarray, ...], mips: np.ndarray) -> tuple[float, ...]:
    """Best makespan over all m**n assignments of each workload; a handful of tasks only."""
    m = mips.shape[0]
    plans = np.array(list(itertools.product(range(m), repeat=workloads[0].shape[0])))
    one_hot = [plans == j for j in range(m)]  # (m**n, n) each
    best = []
    for lengths in workloads:
        etc = lengths[:, None] / mips[None, :]
        loads = np.stack([one_hot[j] @ etc[:, j] for j in range(m)], axis=1)
        best.append(float(loads.max(axis=1).min()))
    return tuple(best)


def check(outcome: Outcome) -> dict[tuple[str, int], list[str]]:
    """Every failed cell of one call, with the reasons it failed."""
    failures: dict[tuple[str, int], list[str]] = {}

    def fail(cell: tuple[str, int], reason: str) -> None:
        failures.setdefault(cell, []).append(reason)

    keys = [(r["scheduler"], r["replicate"]) for r in outcome.records]
    if sorted(keys) != sorted(outcome.expected):
        for cell in outcome.expected:
            fail(cell, f"raw.csv holds {keys.count(cell)} rows for this cell, "
                       f"{len(keys)} rows for {len(outcome.expected)} cells")
        return failures

    oracle = outcome.oracle
    for record in outcome.records:
        cell = (record["scheduler"], record["replicate"])
        r = record["replicate"]
        n = oracle.lengths[r].shape[0]
        span = record["makespan_s"]
        fitness = span + oracle.beta(r) * (1.0 - record["boi"])
        if not math.isclose(record["fitness"], fitness, rel_tol=REL_TOL):
            fail(cell, f"fitness {record['fitness']!r} != makespan + beta(1-boi) = {fitness!r}")
        if not math.isclose(record["throughput_tps"], n / span, rel_tol=REL_TOL):
            fail(cell, f"throughput {record['throughput_tps']!r} != n/makespan = {n / span!r}")
        if oracle.optimum is not None and span < oracle.optimum[r] * (1.0 - REL_TOL):
            fail(cell, f"makespan {span!r} below the exhaustive optimum {oracle.optimum[r]!r}")

    for cell in outcome.expected:
        if cell[0] in OPTIMIZERS and cell not in outcome.logs:
            fail(cell, "no convergence log")
    for cell, series in outcome.logs.items():
        if any(b > a for a, b in zip(series, series[1:])):
            fail(cell, "convergence best_fitness increases")

    for pair, reason in _check_ttests(outcome):
        for cell in outcome.expected:
            if cell[0] in pair:
                fail(cell, reason)
    return failures


def _check_ttests(outcome: Outcome):
    schedulers = list(dict.fromkeys(s for s, _ in outcome.expected))
    replicates = sorted({r for _, r in outcome.expected})
    column: dict[tuple[str, str], dict[int, float]] = {}
    for rec in outcome.records:
        for metric in TTEST_METRICS:
            column.setdefault((rec["scheduler"], metric), {})[rec["replicate"]] = rec[metric]
    found = {(c["metric"], c["a"], c["b"]): c["p_value"] for c in outcome.comparisons}
    if len(replicates) < 2:
        return
    for metric in TTEST_METRICS:
        for i, a in enumerate(schedulers):
            for b in schedulers[i + 1:]:
                if (metric, a, b) not in found:
                    yield (a, b), f"no t-test of {metric} for {a} vs {b}"
                    continue
                xa = np.array([column[(a, metric)][r] for r in replicates])
                xb = np.array([column[(b, metric)][r] for r in replicates])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    expected = float(stats.ttest_rel(xa, xb).pvalue)
                if math.isnan(expected):  # zero-spread differences
                    expected = 1.0 if float((xa - xb).mean()) == 0.0 else 0.0
                got = float(found[(metric, a, b)])
                if not math.isclose(got, expected, rel_tol=P_VALUE_REL_TOL, abs_tol=1e-300):
                    yield (a, b), f"{metric} {a} vs {b}: p-value {got!r}, scipy gives {expected!r}"
