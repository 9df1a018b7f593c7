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
from swarmsched import baselines
from swarmsched.encoding import capacity_threshold, map_with_loads
from swarmsched.metrics import default_beta, load_vector


def assert_bitwise_equal(actual, expected):
    npt.assert_array_equal(actual.view(np.int64), np.asarray(expected).view(np.int64))


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
    good = {"lengths_mi": np.array([100.0, 500.0]), "mips": np.array([1000.0, 2000.0])}
    bad_vectors = (
        (np.ones((2, 2)), "a non-empty 1-D"),
        (np.array(5.0), "a non-empty 1-D"),
        (np.empty(0), "a non-empty 1-D"),
        (np.array([1.0, 0.0]), "finite and positive"),
        (np.array([1.0, np.inf]), "finite and positive"),
    )
    for field in good:
        for bad, message in bad_vectors:
            with pytest.raises(ValueError, match=f"{field} must be {message}"):
                EtcMatrix(**{**good, field: bad})


def test_etc_matrix_shape_properties():
    etc = EtcMatrix(np.ones(3), np.ones(2))
    assert etc.n == 3
    assert etc.m == 2


def test_etc_matrix_compares_and_hashes_by_identity():
    etc = EtcMatrix(np.ones(3), np.ones(2))
    twin = EtcMatrix(np.ones(3), np.ones(2))
    assert etc == etc
    assert etc != twin
    plans = {etc: "etc", twin: "twin"}
    assert plans[etc] == "etc" and plans[twin] == "twin"
    # the cached properties still fill in after the hash is taken
    assert etc.arcs is None and etc.share == 1.5


def test_etc_matrix_owns_read_only_copies_of_its_vectors():
    lengths, mips = np.full(3, 400.0), np.full(2, 100.0)
    etc = EtcMatrix(lengths, mips)
    # writes to the caller's arrays reach neither vector, so the costs and
    # the cached share and arcs cannot go stale
    lengths[0] = 10000.0
    mips[1] = 1.0
    npt.assert_array_equal(etc.lengths_mi, [400.0, 400.0, 400.0])
    npt.assert_array_equal(etc.mips, [100.0, 100.0])
    assert not np.shares_memory(etc.lengths_mi, lengths)
    assert not np.shares_memory(etc.mips, mips)
    assert etc.arcs is None
    assignment, loads = map_with_loads(np.full(3, 0.5), etc, threshold=8.0)
    npt.assert_array_equal(assignment, [0, 0, 1])
    npt.assert_array_equal(loads, [8.0, 4.0])
    for array in (etc.lengths_mi, etc.mips):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_etc_share_is_total_mi_over_total_mips_bit_for_bit():
    rng = np.random.default_rng(27)
    for n, m in ((8, 3), (800, 4), (5000, 8), (1, 1)):
        for lengths, mips in ((rng.uniform(100.0, 1000.0, n), rng.uniform(500.0, 3000.0, m)),
                              (rng.lognormal(7.0, 1.0, n), np.linspace(500.0, 3000.0, m))):
            etc = EtcMatrix(lengths, mips)
            # the benchmark oracle's lower bound, the same expression
            assert etc.share == float(lengths.sum() / mips.sum())
            for theta in (1.0, 1.05, 1.2, 2.0):
                assert capacity_threshold(etc, theta) == theta * etc.share


def test_etc_arcs_split_the_period_in_proportion_to_speed():
    lengths = np.array([100.0, 500.0, 250.0])
    etc = EtcMatrix(lengths, np.array([500.0, 1000.0, 2500.0]))
    # 3 * (500, 1500) / 4000
    npt.assert_allclose(etc.arcs, [0.375, 1.125], rtol=1e-15)
    assert_bitwise_equal(etc.arcs, np.cumsum([500.0, 1000.0]) * (3 / 4000.0))
    assert etc.arcs is etc.arcs
    assert not etc.arcs.flags.writeable
    # scale-5000x8's fleet: 500 to 3000 MIPS over 8 VMs
    fleet = np.linspace(500.0, 3000.0, 8)
    scale = EtcMatrix(lengths, fleet)
    assert_bitwise_equal(scale.arcs, np.cumsum(fleet[:-1]) * (8 / fleet.sum()))
    npt.assert_allclose(scale.arcs, [0.286, 0.776, 1.469, 2.367, 3.469, 4.776, 6.286], atol=5e-4)


def test_etc_arcs_are_none_when_every_vm_is_alike():
    # the decode then takes its plain path, floor(|x|) mod m
    assert EtcMatrix(np.ones(3), np.ones(4)).arcs is None
    assert EtcMatrix(np.array([100.0, 300.0]), np.array([1000.0])).arcs is None
    assert EtcMatrix(np.array([123.4, 5.0, 999.9]), np.full(5, 1000.0)).arcs is None


@pytest.mark.parametrize("n, m", [(8, 3), (800, 4), (5000, 8)])
@pytest.mark.parametrize("identical", [True, False], ids=["identical", "mixed"])
def test_etc_costs_are_computed_where_read_and_no_table_is_kept(n, m, identical, monkeypatch):
    rng = np.random.default_rng([30, n, m])
    lengths = rng.lognormal(np.log(1000.0), 1.0, n)
    mips = np.full(m, 1000.0) if identical else rng.uniform(500.0, 3000.0, m)
    workload = Workload(tuple(Task(i, float(x)) for i, x in enumerate(lengths)))
    fleet = tuple(VmSpec(j, float(x)) for j, x in enumerate(mips))
    etc = build_etc(workload, fleet)
    table = lengths[:, None] / mips
    vm_of = rng.integers(0, m, n)
    assert_bitwise_equal(load_vector(vm_of, etc),
                         np.bincount(vm_of, weights=table[np.arange(n), vm_of], minlength=m))
    assert_bitwise_equal(np.array(default_beta(etc)), np.array(0.5 * float(table.mean()) * n / m))

    positions = rng.uniform(0.0, m, (3, n))
    positions[0] = 0.0  # every task proposed onto VM 0: the row breaches
    _, loads = map_with_loads(positions, etc, capacity_threshold(etc, 1.05))
    assert loads[0, 1:].any()
    built = []  # the matrix min_min builds for itself

    def spy(*args):
        built.append(build_etc(*args))
        return built[-1]

    monkeypatch.setattr(baselines, "build_etc", spy)
    baselines.min_min(workload, fleet)
    assert built
    # an n x m table, cached or not, would show up here next to the vectors
    for matrix in (etc, *built):
        assert set(vars(matrix)) <= {"lengths_mi", "mips", "share", "arcs"}


def test_build_etc_hand_table(tiny_workload, tiny_fleet):
    # lengths [100, 500] MI over [1000, 2000] MIPS: seconds = length / mips
    etc = build_etc(tiny_workload, tiny_fleet)
    npt.assert_array_equal(etc.lengths_mi, [100.0, 500.0])
    npt.assert_array_equal(etc.mips, [1000.0, 2000.0])
    npt.assert_allclose(etc.lengths_mi[:, None] / etc.mips, [[0.1, 0.05], [0.5, 0.25]])


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
