"""Schedule quality measures: makespan, throughput, load balance, penalized fitness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import EtcMatrix, Timeline, check_assignment

__all__ = [
    "MetricsReport",
    "makespan",
    "throughput",
    "load_vector",
    "coefficient_of_variation",
    "balance_optimality_index",
    "fitness",
    "default_beta",
    "score_loads",
    "evaluate_assignment",
]


@dataclass(frozen=True)
class MetricsReport:
    """All headline metrics for one decoded schedule."""

    makespan_s: float
    throughput_tps: float
    cv: float
    boi: float
    fitness: float


def makespan(timeline: Timeline) -> float:
    """Completion time of the last task to finish."""
    if timeline.exit_s.size == 0:
        raise ValueError("empty schedule: no tasks in timeline")
    return float(timeline.exit_s.max())


def throughput(n: int, makespan_s: float) -> float:
    """Tasks completed per second of schedule length."""
    if makespan_s == 0:
        raise ValueError("throughput undefined for zero makespan")
    return n / makespan_s


def load_vector(assignment: Sequence[int] | np.ndarray, etc: EtcMatrix) -> np.ndarray:
    """Per-VM busy time: sum of the ETCs of the tasks assigned to each VM."""
    vm_of = check_assignment(assignment, etc.n, etc.m)
    chosen = etc.entries[np.arange(etc.n), vm_of]
    return np.bincount(vm_of, weights=chosen, minlength=etc.m)


def coefficient_of_variation(loads: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Standard deviation of VM loads over their mean.

    Population form (divide by m, not m - 1): the fleet is the whole
    population, not a sample from one. A 2-D input holds one load vector per
    row and gives one CV per row.
    """
    arr = np.asarray(loads, dtype=float)
    if arr.shape[-1] == 0:
        raise ValueError("undefined CV: no loads")
    mean = arr.mean(axis=-1)
    if np.any(mean == 0):
        raise ValueError("undefined CV: zero mean load")
    cv = arr.std(axis=-1) / mean
    return float(cv) if arr.ndim == 1 else cv


def balance_optimality_index(cv: float | np.ndarray) -> float | np.ndarray:
    """1 / (1 + CV): 1.0 at perfect balance, falling toward 0 with imbalance."""
    if np.any(cv < 0):
        raise ValueError(f"cv must be non-negative, got {cv}")
    return 1.0 / (1.0 + cv)


def fitness(
    makespan_s: float | np.ndarray, boi: float | np.ndarray, beta: float
) -> float | np.ndarray:
    """Makespan plus the imbalance penalty beta * (1 - BOI); lower is better."""
    if not np.all(makespan_s > 0):
        raise ValueError(f"makespan_s must be positive, got {makespan_s}")
    if not np.all((0 < boi) & (boi <= 1)):
        raise ValueError(f"boi must lie in (0, 1], got {boi}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return makespan_s + beta * (1.0 - boi)


def default_beta(etc: EtcMatrix) -> float:
    """Imbalance penalty weight on the scale of a perfectly balanced makespan.

    Half of mean(ETC) * n / m: mean ETC times tasks-per-VM approximates the
    balanced per-VM busy time, so the penalty competes with, but cannot
    dominate, the makespan term.
    """
    return 0.5 * float(etc.entries.mean()) * etc.n / etc.m


def score_loads(
    loads: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Makespan, CV, BOI and fitness of per-VM loads, one of each per row.

    Under back-to-back per-VM execution the makespan is the largest load. A
    whole swarm scores in one pass from its (S, m) loads matrix; each row
    gives bit for bit what the same row alone would.
    """
    makespan_s = np.max(loads, axis=-1)
    cv = coefficient_of_variation(loads)
    boi = balance_optimality_index(cv)
    return makespan_s, cv, boi, fitness(makespan_s, boi, beta)


def evaluate_assignment(
    assignment: Sequence[int] | np.ndarray,
    etc: EtcMatrix,
    beta: float,
    loads: np.ndarray | None = None,
) -> MetricsReport:
    """Score one assignment end to end.

    `loads` can be supplied by callers that already accumulated per-VM busy
    time (the capacity-aware mapper does); it must equal load_vector's output.
    """
    if loads is None:
        loads = load_vector(assignment, etc)
    makespan_s, cv, boi, fit = (float(v) for v in score_loads(np.asarray(loads, float), beta))
    return MetricsReport(
        makespan_s=makespan_s,
        throughput_tps=throughput(etc.n, makespan_s),
        cv=cv,
        boi=boi,
        fitness=fit,
    )
