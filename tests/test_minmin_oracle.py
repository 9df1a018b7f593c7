"""The sort-based Min-Min against the whole-table greedy, bit for bit."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_baselines as ref
from swarmsched.baselines import min_min

from conftest import make_fleet, make_workload


def assert_plans_equal(lengths, mips):
    workload, fleet = make_workload(lengths), make_fleet(mips)
    plan = min_min(workload, fleet)
    assert plan.dtype == np.int64
    npt.assert_array_equal(plan, ref.min_min(workload, fleet))


def colliding_run(rng, divisor):
    """Distinct neighbouring lengths (at least two) whose quotients by divisor are one float."""
    while True:
        run = [rng.uniform(100.0, 1000.0)]
        while (up := np.nextafter(run[-1], np.inf)) / divisor == run[0] / divisor:
            run.append(up)
        if len(run) > 1:
            return run


@st.composite
def minmin_cases(draw):
    n = draw(st.one_of(st.just(1), st.integers(1, 40)))
    m = draw(st.one_of(st.just(1), st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mips = np.full(m, rng.uniform(500.0, 3000.0))  # identical fleet: VMs tie
    else:
        mips = rng.uniform(500.0, 3000.0, m)

    kind = draw(st.sampled_from(["random", "repeated", "colliding"]))
    if kind == "random":
        lengths = rng.uniform(100.0, 1000.0, n)
    elif kind == "repeated":
        lengths = rng.choice(rng.uniform(100.0, 1000.0, draw(st.integers(1, 4))), n)
    else:
        # runs of distinct lengths that tie after division on one VM each,
        # drawn with repeats so that equal and merely colliding lengths mix
        pool = []
        for _ in range(draw(st.integers(1, 3))):
            pool.extend(colliding_run(rng, mips[rng.integers(m)]))
        lengths = rng.choice(pool, n)
    return lengths, mips


@settings(max_examples=300, deadline=None)
@given(case=minmin_cases())
def test_min_min_matches_the_whole_table_greedy(case):
    assert_plans_equal(*case)


def test_colliding_runs_tie_after_division():
    # premise of the "colliding" cases: distinct lengths, one quotient
    rng = np.random.default_rng(3)
    run = colliding_run(rng, 1234.5)
    assert len(set(run)) == len(run) > 1
    assert len({length / 1234.5 for length in run}) == 1


def test_longer_task_with_lower_id_wins_a_division_tie():
    # task 0 is one ulp longer than task 1 but divides to the same ETC, so
    # the pair tie and the lowest id goes first although it sorts second
    shorter, longer = colliding_run(np.random.default_rng(11), 1000.0)[:2]
    workload, fleet = make_workload([longer, shorter]), make_fleet([1000.0])
    npt.assert_array_equal(min_min(workload, fleet), [0, 0])
    for mips in ([1000.0, 1000.0], [1000.0, 3000.0], [3000.0, 1000.0]):
        assert_plans_equal([longer, shorter, longer], mips)
    # the 16 shorter fillers go first and leave both VMs ready at 1.0, where
    # three adjacent lengths complete at one time, so the round must scan
    # past the first longer run to reach task 0
    top = np.nextafter(longer, np.inf)
    assert len({1.0 + length / 1000.0 for length in (top, longer, shorter)}) == 1
    assert_plans_equal([top, longer, shorter] + [125.0] * 16, [1000.0, 1000.0])


@pytest.mark.parametrize("seed", range(4))
def test_a_tie_across_vms_reaches_a_run_that_ties_on_one_of_them(seed):
    # the filler goes first, to the fast VM 0; then the shorter colliding
    # length completes at q on both VMs, and the longer one, with the lower
    # id, ties at q on VM 1 only, so the greedy commits it there first
    shorter, longer = colliding_run(np.random.default_rng(seed), 3.0)[:2]
    q = shorter / 3.0
    filler = 4.0 * q - shorter  # exact: filler + shorter == 4q
    assert (filler + shorter) / 4.0 == q and (filler + longer) / 4.0 != q
    lengths = [longer, shorter, filler, shorter]
    workload, fleet = make_workload(lengths), make_fleet([4.0, 3.0])
    npt.assert_array_equal(min_min(workload, fleet), [1, 0, 0, 0])
    assert_plans_equal(lengths, [4.0, 3.0])


@pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (30, 1), (5000, 8)])
def test_min_min_matches_the_greedy_on_lognormal_lengths(n, m):
    rng = np.random.default_rng(n + m)
    assert_plans_equal(rng.lognormal(8.0, 1.0, n), rng.uniform(500.0, 3000.0, m))


def test_equal_lengths_on_an_identical_fleet():
    assert_plans_equal([1000.0] * 2000, [1000.0] * 8)
