"""Shared builders for small hand-checkable problem instances."""

from __future__ import annotations

import numpy as np
import pytest

from swarmsched.domain import Task, VmSpec, Workload


def make_workload(lengths_mi):
    tasks = tuple(Task(i, float(length)) for i, length in enumerate(lengths_mi))
    return Workload(tasks=tasks)


def make_fleet(mips_list):
    return tuple(VmSpec(j, float(mips)) for j, mips in enumerate(mips_list))


@pytest.fixture
def tiny_workload():
    return make_workload([100.0, 500.0])


@pytest.fixture
def tiny_fleet():
    return make_fleet([1000.0, 2000.0])


def random_instance(rng, n, m, low=100.0, high=1000.0):
    lengths = rng.uniform(low, high, n)
    mips = rng.uniform(500.0, 2000.0, m)
    return make_workload(lengths), make_fleet(mips)
