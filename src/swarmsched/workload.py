"""Synthetic workload generation, trace-file ingestion, and standard fleets."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import Task, VmSpec, Workload

__all__ = [
    "SyntheticSpec",
    "TraceParseError",
    "TRACE_HEADER",
    "DEFAULT_SCALE_MI_PER_CORE_S",
    "generate_synthetic",
    "ingest_trace",
    "export_trace_csv",
    "standard_fleet",
]

TRACE_HEADER = ("task_id", "cpu_request", "duration_s")

# Conversion from trace rows to MI: one fully-requested core-second of work
# counts as this many million instructions.
DEFAULT_SCALE_MI_PER_CORE_S = 1000.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a uniform-length synthetic workload."""

    n: int
    min_length_mi: float = 100.0
    max_length_mi: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 < self.min_length_mi <= self.max_length_mi:
            raise ValueError(
                f"need 0 < min_length_mi <= max_length_mi, got "
                f"({self.min_length_mi}, {self.max_length_mi})"
            )


class TraceParseError(ValueError):
    """Structurally bad trace row; carries the 1-based file line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"trace parse error at row {line_number}: {message}")
        self.line_number = line_number


def generate_synthetic(spec: SyntheticSpec) -> Workload:
    """n tasks with lengths uniform in [min, max] MI; reproducible per seed."""
    rng = np.random.default_rng(spec.seed)
    lengths = rng.uniform(spec.min_length_mi, spec.max_length_mi, spec.n)
    return Workload(
        tuple(Task(i, float(length)) for i, length in enumerate(lengths)), "synthetic"
    )


def ingest_trace(
    path: str | Path,
    limit: int,
    scale_mi_per_core_s: float = DEFAULT_SCALE_MI_PER_CORE_S,
) -> Workload:
    """Read the first `limit` valid records of a normalized trace CSV.

    Schema (header required): task_id,cpu_request,duration_s. Each valid row
    becomes a task of cpu_request * duration_s * scale MI. Structurally
    malformed rows (wrong field count, unparseable numbers) abort with their
    line number; well-formed rows outside the valid ranges (cpu_request in
    (0, 1], duration_s > 0, both finite) are skipped and do not count toward
    the limit. Reading stops once `limit` records are collected, so extending
    the file never changes the first records.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if not scale_mi_per_core_s > 0:
        raise ValueError(f"scale_mi_per_core_s must be positive, got {scale_mi_per_core_s}")
    tasks: list[Task] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(cell.strip() for cell in header) != TRACE_HEADER:
            raise TraceParseError(1, f"expected header {','.join(TRACE_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise TraceParseError(line, f"expected 3 fields, got {len(row)}")
            try:
                cpu = float(row[1])
                duration = float(row[2])
            except ValueError:
                raise TraceParseError(
                    line, f"non-numeric cpu_request/duration_s: {row[1]!r},{row[2]!r}"
                ) from None
            if not (math.isfinite(cpu) and math.isfinite(duration)):
                continue
            if not (0 < cpu <= 1 and duration > 0):
                continue
            tasks.append(Task(len(tasks), cpu * duration * scale_mi_per_core_s))
            if len(tasks) == limit:
                break
    if not tasks:
        raise ValueError(f"empty trace: no valid records in {path}")
    return Workload(tuple(tasks), "trace")


def export_trace_csv(
    workload: Workload,
    path: str | Path,
    scale_mi_per_core_s: float = DEFAULT_SCALE_MI_PER_CORE_S,
) -> None:
    """Write a workload in the trace schema so it round-trips through ingest_trace.

    Tasks are emitted as one full core (cpu_request = 1.0) running for
    length_mi / scale seconds.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for task in workload.tasks:
            writer.writerow([task.id, 1.0, task.length_mi / scale_mi_per_core_s])


def standard_fleet(m: int) -> tuple[VmSpec, ...]:
    """m identical VMs at 1000 MIPS."""
    if m < 1:
        raise ValueError(f"empty input: need at least one VM, got m={m}")
    return tuple(VmSpec(j, 1000.0) for j in range(m))
