"""Core scheduling domain: tasks, VM fleets, ETC matrices, assignment checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Task",
    "VmSpec",
    "Workload",
    "EtcMatrix",
    "build_etc",
    "check_assignment",
]


@dataclass(frozen=True)
class Task:
    """One unit of work, sized in million instructions (MI)."""

    id: int
    length_mi: float

    def __post_init__(self) -> None:
        if not self.length_mi > 0:
            raise ValueError(f"task {self.id}: length_mi must be positive, got {self.length_mi}")


@dataclass(frozen=True)
class VmSpec:
    """A virtual machine's processing capacity in MIPS."""

    id: int
    mips: float

    def __post_init__(self) -> None:
        if not self.mips > 0:
            raise ValueError(f"vm {self.id}: mips must be positive, got {self.mips}")


@dataclass(frozen=True)
class Workload:
    """An ordered batch of independent tasks, all available at time zero."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for index, task in enumerate(self.tasks):
            if task.id != index:
                raise ValueError(
                    f"task ids must be contiguous from 0: index {index} holds id {task.id}"
                )

    def __len__(self) -> int:
        return len(self.tasks)

    def lengths_mi(self) -> np.ndarray:
        return np.array([task.length_mi for task in self.tasks], dtype=float)


@dataclass(frozen=True)
class EtcMatrix:
    """Expected time to compute: entries[i][j] is task i's runtime on VM j, seconds."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("etc entries must form a non-empty 2-D table")
        if not np.all(np.isfinite(entries)) or np.any(entries <= 0):
            raise ValueError("etc entries must be finite and positive")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def rows(self) -> list[list[float]]:
        # Plain nested lists, cached: the sequential mapping loops index single
        # cells millions of times and ndarray scalar access is far slower.
        return self.entries.tolist()

    @cached_property
    def arcs(self) -> np.ndarray | None:
        """Inner edges of the VMs' speed arcs on [0, m), read-only; None if every VM is alike.

        VM j owns the j-th arc, of length m * mips_j / sum(mips), so the
        m - 1 edges between the arcs are m times the running speed shares.
        The speeds are recovered from the columns, as the capacity threshold
        recovers the share: column j sums to total_mi / mips_j. When every
        column sums alike, every arc is a unit [j, j + 1), and None tells the
        decode to take its plain path, floor(|x|) mod m.
        """
        column_sums = self.entries.sum(axis=0)
        if np.all(column_sums == column_sums[0]):
            return None
        speeds = 1.0 / column_sums
        edges = np.cumsum(speeds[:-1]) * (self.m / np.sum(speeds))
        edges.flags.writeable = False
        return edges

    @cached_property
    def offsets(self) -> np.ndarray:
        """m * arange(n), read-only: task i's cost on VM j is entries.flat[offsets[i] + j]."""
        offsets = self.m * np.arange(self.n, dtype=np.int64)
        offsets.flags.writeable = False
        return offsets


def check_assignment(assignment: Sequence[int] | np.ndarray, n: int, m: int) -> np.ndarray:
    """Validate a task-to-VM map: length n, integer entries in [0, m)."""
    vm_of = np.asarray(assignment)
    if vm_of.size == 0:
        raise ValueError("invalid assignment: empty")
    if vm_of.ndim != 1 or vm_of.shape[0] != n:
        raise ValueError(f"invalid assignment: expected {n} entries, got shape {vm_of.shape}")
    if not np.issubdtype(vm_of.dtype, np.integer):
        raise ValueError("invalid assignment: VM indices must be integers")
    if np.any((vm_of < 0) | (vm_of >= m)):
        raise ValueError(f"invalid assignment: VM index outside [0, {m})")
    return vm_of.astype(np.int64, copy=False)


def build_etc(workload: Workload, vms: Sequence[VmSpec]) -> EtcMatrix:
    """ETC for every (task, VM) pair: length_mi / mips, in seconds."""
    if len(workload) == 0:
        raise ValueError("empty input: workload has no tasks")
    if len(vms) == 0:
        raise ValueError("empty input: fleet has no VMs")
    for index, vm in enumerate(vms):
        if vm.id != index:
            raise ValueError(f"vm ids must be contiguous from 0: index {index} holds id {vm.id}")
    mips = np.array([vm.mips for vm in vms], dtype=float)
    return EtcMatrix(workload.lengths_mi()[:, None] / mips[None, :])

