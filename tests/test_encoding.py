"""Continuous-position encoding and the capacity-aware decode path."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from swarmsched.domain import EtcMatrix, build_etc
from swarmsched.encoding import capacity_threshold, decode_position, map_with_loads
from swarmsched.metrics import load_vector, score_loads

from conftest import make_fleet, make_workload, random_instance


def test_decode_hand_values():
    # floor of |x|, wrapped modulo the fleet size
    npt.assert_array_equal(decode_position([7.3], m=4), [3])
    npt.assert_array_equal(decode_position([-2.5], m=4), [2])
    npt.assert_array_equal(decode_position([0.0], m=4), [0])
    npt.assert_array_equal(decode_position([4.0], m=4), [0])
    npt.assert_array_equal(decode_position([11.9], m=4), [3])


def test_decode_returns_int64_in_range():
    rng = np.random.default_rng(3)
    coords = rng.uniform(-40, 40, 200)
    out = decode_position(coords, m=4)
    assert out.dtype == np.int64
    assert out.min() >= 0 and out.max() < 4


def test_decode_of_integer_vm_index_is_identity():
    m = 5
    for j in range(m):
        assert decode_position([j + 0.5], m)[0] == j


def test_decode_validation():
    with pytest.raises(ValueError, match="at least one VM"):
        decode_position([1.0], m=0)
    with pytest.raises(ValueError, match="non-finite"):
        decode_position([np.nan], m=2)
    with pytest.raises(ValueError, match="non-finite"):
        decode_position([np.inf], m=2)


@pytest.mark.parametrize(
    "position, m, arcs, message",
    [
        # three edges on two VMs would decode 1.9 to VM 3
        ([1.9, 0.2], 2, [0.5, 1.0, 1.5], "m - 1 = 1 edges for m=2, got 3"),
        ([1.9, 0.2], 4, [1.0], "m - 1 = 3 edges for m=4, got 1"),
        ([0.5], 1, [0.5], "m - 1 = 0 edges for m=1, got 1"),
    ],
)
def test_decode_rejects_arcs_that_are_not_m_minus_one_edges(position, m, arcs, message):
    with pytest.raises(ValueError, match=message):
        decode_position(position, m, np.array(arcs))


def test_capacity_policy_requires_headroom_at_least_one(tiny_workload, tiny_fleet):
    etc = build_etc(tiny_workload, tiny_fleet)
    capacity_threshold(etc, 1.0)  # boundary accepted
    for theta in (0.99, np.nan):
        with pytest.raises(ValueError, match="headroom_theta"):
            capacity_threshold(etc, theta)


def test_capacity_threshold_hand_value(tiny_workload, tiny_fleet):
    # 600 MI over 3000 MIPS: fair share 0.2 s
    etc = build_etc(tiny_workload, tiny_fleet)
    assert capacity_threshold(etc, 1.0) == pytest.approx(0.2)
    assert capacity_threshold(etc, 1.2) == pytest.approx(0.24)


def test_map_with_loads_reroutes_overflow_to_least_loaded():
    # ETC [[10, 5], [8, 4], [6, 3]]; VM 0's speed arc is [0, 2/3)
    etc = EtcMatrix(np.array([10.0, 8.0, 6.0]), np.array([1.0, 2.0]))
    position = [0.5, 0.5, 0.5]  # every task decodes to VM 0
    assignment, loads = map_with_loads(position, etc, threshold=15.0)
    # task 0 fits on VM 0; tasks 1 and 2 would push it past 15 and spill to VM 1
    npt.assert_array_equal(assignment, [0, 1, 1])
    npt.assert_allclose(loads, [10.0, 7.0])


def test_map_with_loads_fallback_used_even_above_threshold():
    etc = EtcMatrix(np.array([10.0, 8.0]), np.array([1.0, 2.0]))  # ETC [[10, 5], [8, 4]]
    assignment, loads = map_with_loads([0.5, 0.5], etc, threshold=1.0)
    # nothing fits anywhere; each task still lands on the least-loaded VM
    npt.assert_array_equal(assignment, [0, 1])
    npt.assert_allclose(loads, [10.0, 4.0])


def test_map_with_loads_tie_breaks_to_lowest_vm():
    etc = EtcMatrix(np.array([2.0]), np.ones(3))
    assignment, _ = map_with_loads([2.5], etc, threshold=1.0)
    npt.assert_array_equal(assignment, [0])


def test_map_with_loads_cost_recharged_on_fallback_vm():
    # heterogeneous row: rerouting must charge the fallback VM's own ETC.
    # Lengths 10 and 70 MI on VMs of 1 and 10 MIPS; VM 0's speed arc is
    # [0, 2/11), so both tasks decode to it
    etc = build_etc(make_workload([10.0, 70.0]), make_fleet([1.0, 10.0]))
    npt.assert_array_equal(etc.lengths_mi[:, None] / etc.mips, [[10.0, 1.0], [70.0, 7.0]])
    assignment, loads = map_with_loads([0.1, 0.1], etc, threshold=50.0)
    npt.assert_array_equal(assignment, [0, 1])
    npt.assert_allclose(loads, [10.0, 7.0])


def test_map_loads_agree_with_load_vector():
    rng = np.random.default_rng(11)
    workload, fleet = random_instance(rng, n=30, m=4)
    etc = build_etc(workload, fleet)
    position = rng.uniform(0, 4, 30)
    assignment, loads = map_with_loads(position, etc, capacity_threshold(etc, 1.2))
    npt.assert_allclose(loads, load_vector(assignment, etc))


def test_capacity_mapping_no_worse_balance_on_average():
    # Rerouting overflow should not hurt load balance in aggregate.
    rng = np.random.default_rng(23)
    workload, fleet = random_instance(rng, n=60, m=4)
    etc = build_etc(workload, fleet)
    threshold = capacity_threshold(etc, 1.2)
    mapped_cv, raw_cv = [], []
    for _ in range(50):
        position = rng.uniform(0, 4, 60)
        assignment, loads = map_with_loads(position, etc, threshold)
        mapped_cv.append(score_loads(loads, 0.0)[1])
        raw = decode_position(position, 4)
        raw_cv.append(score_loads(load_vector(raw, etc), 0.0)[1])
    assert np.mean(mapped_cv) <= np.mean(raw_cv)
