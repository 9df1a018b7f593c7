"""Schedule quality measures: makespan, throughput, load balance, penalized fitness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import EtcMatrix, check_assignment

__all__ = [
    "MetricsReport",
    "load_vector",
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


def load_vector(assignment: Sequence[int] | np.ndarray, etc: EtcMatrix) -> np.ndarray:
    """Per-VM busy time: sum of the ETCs of the tasks assigned to each VM."""
    vm_of = check_assignment(assignment, etc.n, etc.m)
    chosen = etc.lengths_mi / etc.mips[vm_of]
    return np.bincount(vm_of, weights=chosen, minlength=etc.m)


def default_beta(etc: EtcMatrix) -> float:
    """Imbalance penalty weight on the scale of a perfectly balanced makespan.

    Half of mean(ETC) * n / m: mean ETC times tasks-per-VM approximates the
    balanced per-VM busy time, so the penalty competes with, but cannot
    dominate, the makespan term.
    """
    # the (n, m) ETC table under the same pairwise mean, so beta keeps every bit
    return 0.5 * float((etc.lengths_mi[:, None] / etc.mips).mean()) * etc.n / etc.m


def score_loads(
    loads: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Makespan, CV, BOI and fitness of per-VM loads, one of each per row.

    Under back-to-back per-VM execution the makespan is the largest load.
    The CV is the population form (divide by m, not m - 1), since the fleet
    is the whole population, not a sample from one. BOI = 1 / (1 + CV) is 1
    at perfect balance, and fitness = makespan + beta * (1 - BOI), lower is
    better. A whole swarm scores in one pass from its (S, m) loads matrix;
    each row gives bit for bit what the same row alone would. Loads are sums
    of non-negative ETCs, so the one check they need is the CV's zero mean:
    with a positive mean the makespan is positive and the BOI lies in (0, 1].
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    m = loads.shape[-1]
    makespan_s = np.maximum.reduce(loads, axis=-1)
    # the ufuncs that loads.mean(axis=-1) and loads.std(axis=-1) run, in
    # their order, without their Python wrappers: bit for bit the same values
    mean = np.add.reduce(loads, axis=-1, keepdims=True)
    mean /= m
    if (mean == 0).any():
        raise ValueError("undefined CV: zero mean load")
    spread = np.subtract(loads, mean)
    np.multiply(spread, spread, out=spread)
    cv = np.sqrt(np.add.reduce(spread, axis=-1) / m) / mean[..., 0]
    boi = 1.0 / (1.0 + cv)
    return makespan_s, cv, boi, makespan_s + beta * (1.0 - boi)


def evaluate_assignment(
    assignment: Sequence[int] | np.ndarray, etc: EtcMatrix, beta: float
) -> MetricsReport:
    """Score one assignment end to end."""
    loads = load_vector(assignment, etc)
    makespan_s, cv, boi, fit = (float(v) for v in score_loads(loads, beta))
    return MetricsReport(
        makespan_s=makespan_s,
        throughput_tps=etc.n / makespan_s,
        cv=cv,
        boi=boi,
        fitness=fit,
    )
