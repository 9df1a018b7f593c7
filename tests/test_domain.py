"""Core data model: tasks, VMs, the ETC table and assignment checks."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from swarmsched.domain import (
    EtcMatrix,
    Task,
    VmSpec,
    Workload,
    build_etc,
    check_assignment,
)


def test_task_rejects_nonpositive_length():
    with pytest.raises(ValueError, match="length_mi must be positive"):
        Task(0, 0.0)
    with pytest.raises(ValueError, match="length_mi must be positive"):
        Task(1, -50.0)


def test_vm_rejects_nonpositive_mips():
    with pytest.raises(ValueError, match="mips must be positive"):
        VmSpec(0, 0.0)


def test_workload_requires_contiguous_ids():
    with pytest.raises(ValueError, match="contiguous"):
        Workload(tasks=(Task(0, 10.0), Task(2, 10.0)))


def test_workload_len_and_lengths(tiny_workload):
    assert len(tiny_workload) == 2
    npt.assert_array_equal(tiny_workload.lengths_mi(), [100.0, 500.0])


def test_etc_matrix_validation():
    with pytest.raises(ValueError, match="non-empty 2-D"):
        EtcMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-empty 2-D"):
        EtcMatrix(np.empty((0, 3)))
    with pytest.raises(ValueError, match="finite and positive"):
        EtcMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite and positive"):
        EtcMatrix(np.array([[1.0, np.inf]]))


def test_etc_matrix_shape_properties():
    etc = EtcMatrix(np.ones((3, 2)))
    assert etc.n == 3
    assert etc.m == 2


def test_etc_rows_matches_entries_and_is_cached():
    etc = EtcMatrix(np.array([[0.1, 0.05], [0.5, 0.25]]))
    rows = etc.rows
    assert rows == [[0.1, 0.05], [0.5, 0.25]]
    assert etc.rows is rows


def test_etc_arcs_split_the_period_in_proportion_to_speed():
    lengths = np.array([100.0, 500.0, 250.0])
    etc = EtcMatrix(lengths[:, np.newaxis] / np.array([500.0, 1000.0, 2500.0]))
    # 3 * (500, 1500) / 4000
    npt.assert_allclose(etc.arcs, [0.375, 1.125], rtol=1e-15)
    assert etc.arcs is etc.arcs
    assert not etc.arcs.flags.writeable
    # scale-5000x8's fleet: 500 to 3000 MIPS over 8 VMs
    fleet = np.linspace(500.0, 3000.0, 8)
    scale = EtcMatrix(lengths[:, np.newaxis] / fleet)
    npt.assert_allclose(scale.arcs, 8 * np.cumsum(fleet)[:-1] / fleet.sum(), rtol=1e-14)
    npt.assert_allclose(scale.arcs, [0.286, 0.776, 1.469, 2.367, 3.469, 4.776, 6.286], atol=5e-4)


def test_etc_arcs_are_none_when_every_vm_is_alike():
    # the decode then takes its plain path, floor(|x|) mod m
    assert EtcMatrix(np.ones((3, 4))).arcs is None
    assert EtcMatrix(np.array([[0.1], [0.3]])).arcs is None
    lengths = np.array([[123.4], [5.0], [999.9]])
    assert EtcMatrix(lengths / np.full(5, 1000.0)).arcs is None


def test_etc_offsets_are_cached_read_only_and_per_matrix():
    three = EtcMatrix(np.ones((3, 4)))
    five = EtcMatrix(np.ones((5, 4)))
    offsets = three.offsets
    assert offsets.dtype == np.int64
    npt.assert_array_equal(offsets, 4 * np.arange(3))
    npt.assert_array_equal(five.offsets, 4 * np.arange(5))
    assert three.offsets is offsets
    # every later gather reads the cached vector, so a stray write must fail
    assert not offsets.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        offsets[1] = 0
    assert not np.shares_memory(offsets, five.offsets)


def test_build_etc_hand_table(tiny_workload, tiny_fleet):
    # lengths [100, 500] MI over [1000, 2000] MIPS: seconds = length / mips
    etc = build_etc(tiny_workload, tiny_fleet)
    npt.assert_allclose(etc.entries, [[0.1, 0.05], [0.5, 0.25]])


def test_build_etc_rejects_empty_inputs(tiny_workload, tiny_fleet):
    with pytest.raises(ValueError, match="workload has no tasks"):
        build_etc(Workload(tasks=()), tiny_fleet)
    with pytest.raises(ValueError, match="fleet has no VMs"):
        build_etc(tiny_workload, ())


def test_build_etc_rejects_noncontiguous_vm_ids(tiny_workload):
    fleet = (VmSpec(0, 1000.0), VmSpec(5, 1000.0))
    with pytest.raises(ValueError, match="contiguous"):
        build_etc(tiny_workload, fleet)


def test_check_assignment_accepts_valid_and_returns_int64():
    out = check_assignment([1, 0, 2], n=3, m=3)
    assert out.dtype == np.int64
    npt.assert_array_equal(out, [1, 0, 2])


def test_check_assignment_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        check_assignment([], n=0, m=2)
    with pytest.raises(ValueError, match="expected 3 entries"):
        check_assignment([0, 1], n=3, m=2)
    with pytest.raises(ValueError, match="must be integers"):
        check_assignment([0.0, 1.0], n=2, m=2)
    with pytest.raises(ValueError, match="outside"):
        check_assignment([0, 2], n=2, m=2)
    with pytest.raises(ValueError, match="outside"):
        check_assignment([0, -1], n=2, m=2)
