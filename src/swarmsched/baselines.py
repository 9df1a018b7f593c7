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
    completes first. The tasks are sorted once by (length, id), and a round
    takes the earliest completion over the VMs for the shortest remaining
    task. The pairs that tie with it form, on each VM, a prefix of the
    remaining tasks in sorted order, and the round picks the lowest task id
    among them. Tasks of equal length are interchangeable and so leave in id
    order: the round steps over each run of them through one pointer. This is
    O(n log n + n·m) and commits exactly the plan of the whole-table greedy.
    """
    etc = build_etc(workload, vms)
    order = np.argsort(etc.lengths_mi, kind="stable")
    sorted_lengths = etc.lengths_mi[order]
    starts = np.flatnonzero(np.r_[True, sorted_lengths[1:] != sorted_lengths[:-1]])
    order = order.tolist()
    lengths, speeds = etc.lengths_mi.tolist(), etc.mips.tolist()
    # run r's tasks still to commit are order[next_pos[r]:run_end[r]]; the
    # runs still holding tasks form a list from head linked through after
    next_pos = starts.tolist()
    run_end = next_pos[1:] + [etc.n]
    no_run = len(next_pos)
    after = list(range(1, no_run + 1))
    head = 0
    ready = [0.0] * etc.m
    out = [0] * etc.n
    while head != no_run:
        task = order[next_pos[head]]
        length = lengths[task]
        completion = [r + length / s for r, s in zip(ready, speeds)]
        best = min(completion)
        vm = completion.index(best)
        if completion.count(best) == 1:
            tied = [vm]
        else:
            tied = [j for j, c in enumerate(completion) if c == best]
        run, before = head, -1
        previous, later = head, after[head]
        while later != no_run:
            candidate = order[next_pos[later]]
            length = lengths[candidate]
            tied = [j for j in tied if ready[j] + length / speeds[j] == best]
            if not tied:
                break
            if candidate < task:
                task, vm, run, before = candidate, tied[0], later, previous
            previous, later = later, after[later]
        out[task] = vm
        ready[vm] = best
        next_pos[run] += 1
        if next_pos[run] == run_end[run]:
            if before < 0:
                head = after[run]
            else:
                after[before] = after[run]
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
