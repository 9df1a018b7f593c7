"""Reference schedulers the optimizer is judged against."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import VmSpec, Workload, build_etc
from .encoding import encode_plan
from .metrics import MetricsReport, evaluate_assignment
from .optimizer import ConvergenceLog, OptimizerConfig, run

__all__ = ["round_robin", "seeded_random", "min_min", "minmin_seeded_hybrid"]


def round_robin(workload: Workload, vms: Sequence[VmSpec]) -> np.ndarray:
    """vm_of[i] = i mod m."""
    etc = build_etc(workload, vms)
    return np.arange(etc.n, dtype=np.int64) % etc.m


def seeded_random(workload: Workload, vms: Sequence[VmSpec], seed: int) -> np.ndarray:
    """Uniform random VM per task, reproducible per seed."""
    etc = build_etc(workload, vms)
    rng = np.random.default_rng(seed)
    return rng.integers(0, etc.m, etc.n, dtype=np.int64)


def min_min(workload: Workload, vms: Sequence[VmSpec]) -> np.ndarray:
    """Classical Min-Min list scheduling.

    Repeatedly commit the (task, VM) pair with the earliest completion time,
    where completion time is the VM's ready time plus the task's ETC. Ties go
    to the lowest task id, then the lowest VM id.

    The ETC is rank-1: an EtcMatrix holds only lengths and speeds, and each
    cost is computed as length / speed where it is read. IEEE division and
    addition round monotonically, so on every VM the shortest remaining task
    completes first, and tasks of equal length leave in id order. One list
    holds the runs of equal length that still have tasks, longest first. A
    round takes the earliest completion over the VMs for the lowest id of the
    last, shortest run, then scans toward the front while a run's lowest id
    ties that completion, and commits the lowest task id among the ties.
    This costs O(n log n + n·m), plus one list shift for each division tie
    that empties a run other than the shortest, and commits exactly the plan
    of the whole-table greedy.
    """
    etc = build_etc(workload, vms)
    # by descending (length, id): each run in live lists its tasks still to
    # commit by descending id, so its lowest id is last, as is the shortest run
    order = np.argsort(etc.lengths_mi, kind="stable")[::-1]
    sorted_lengths = etc.lengths_mi[order]
    edges = np.flatnonzero(np.r_[True, sorted_lengths[1:] != sorted_lengths[:-1], True])
    order, edges = order.tolist(), edges.tolist()
    lengths, speeds = etc.lengths_mi.tolist(), etc.mips.tolist()
    live = [order[a:b] for a, b in zip(edges, edges[1:])]
    ready = [0.0] * etc.m
    out = [0] * etc.n
    while live:
        pick = len(live) - 1
        task = live[pick][-1]
        length = lengths[task]
        completion = [r + length / s for r, s in zip(ready, speeds)]
        best = min(completion)
        tied = [j for j, c in enumerate(completion) if c == best]
        vm, k = tied[0], pick - 1
        while k >= 0:
            candidate = live[k][-1]
            length = lengths[candidate]
            tied = [j for j in tied if ready[j] + length / speeds[j] == best]
            if not tied:
                break
            if candidate < task:
                task, vm, pick = candidate, tied[0], k
            k -= 1
        out[task] = vm
        ready[vm] = best
        live[pick].pop()
        if not live[pick]:
            del live[pick]
    return np.array(out, dtype=np.int64)


def minmin_seeded_hybrid(
    workload: Workload, vms: Sequence[VmSpec], config: OptimizerConfig
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Hybrid run with one particle's start decoding exactly to the Min-Min plan.

    The seed position puts each task at the middle of its VM's arc
    (encode_plan), which the decode maps back to that VM. All other
    particles start at random, and the run proceeds exactly like the
    standard optimizer. The result is never worse than the Min-Min plan:
    that plan is returned, with the run's log, when it scores a strictly
    lower fitness.
    """
    plan = min_min(workload, vms)
    etc = build_etc(workload, vms)
    result = run(workload, vms, config, seeded_positions=[encode_plan(plan, etc.arcs)])
    # the capacity mapper reroutes tasks off a VM whose load would breach the
    # ceiling, so when Min-Min's plan breaches it the swarm never scores it
    plan_report = evaluate_assignment(plan, etc, config.resolve(etc).beta)
    _, report, log = result
    return (plan, plan_report, log) if plan_report.fitness < report.fitness else result
