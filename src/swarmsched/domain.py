"""Core scheduling domain: tasks, VM fleets, task lengths on VM speeds (the ETC), assignment checks."""

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


# eq=False: a field-wise == over ndarrays raises; compare and hash by identity
@dataclass(frozen=True, eq=False)
class EtcMatrix:
    """The problem instance: task lengths in MI on VM speeds in MIPS, both read-only.

    No ETC table is stored: task i takes lengths_mi[i] / mips[j] seconds on
    VM j, and each reader computes that division where it reads the cost.
    """

    lengths_mi: np.ndarray
    mips: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lengths_mi", "mips"):
            vector = np.array(getattr(self, name), dtype=float)  # a copy the caller cannot reach
            if vector.ndim != 1 or vector.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D vector")
            if not np.all(np.isfinite(vector)) or np.any(vector <= 0):
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, _read_only(vector))

    @property
    def n(self) -> int:
        return len(self.lengths_mi)

    @property
    def m(self) -> int:
        return len(self.mips)

    @cached_property
    def share(self) -> float:
        """Every VM's busy time when the total MI is split in proportion to MIPS."""
        return float(self.lengths_mi.sum() / self.mips.sum())

    @cached_property
    def arcs(self) -> np.ndarray | None:
        """Inner edges of the VMs' speed arcs on [0, m), read-only; None if every VM is alike.

        VM j owns the j-th arc, of length m * mips_j / sum(mips), so the
        m - 1 edges between the arcs are m times the running speed shares.
        On identical VMs every arc is a unit [j, j + 1), and None tells the
        decode to take its plain path, floor(|x|) mod m.
        """
        if np.all(self.mips == self.mips[0]):
            return None
        return _read_only(np.cumsum(self.mips[:-1]) * (self.m / self.mips.sum()))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    return EtcMatrix(workload.lengths_mi(), [vm.mips for vm in vms])

