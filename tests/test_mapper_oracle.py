"""The block capacity mapper and its decodes against the sequential reference, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mapper as ref
from swarmsched.domain import EtcMatrix
from swarmsched.encoding import capacity_threshold, decode_position, encode_plan, map_with_loads


def reference_block(positions, etc, threshold):
    """The reference mapper applied row by row, stacked to the block's shape."""
    rows = np.atleast_2d(positions)
    mapped = [ref.map_with_loads(row, etc, threshold) for row in rows]
    assignments = np.stack([assignment for assignment, _ in mapped])
    loads = np.stack([row_loads for _, row_loads in mapped])
    if positions.ndim == 1:
        return assignments[0], loads[0]
    return assignments, loads


def assert_maps_equal(positions, etc, threshold):
    before = positions.copy()
    assignments, loads = map_with_loads(positions, etc, threshold)
    want_assignments, want_loads = reference_block(positions, etc, threshold)
    npt.assert_array_equal(positions, before)  # the input is left alone
    assert assignments.dtype == np.int64
    assert assignments.shape == positions.shape
    assert loads.shape == positions.shape[:-1] + (etc.m,)
    npt.assert_array_equal(assignments, want_assignments)
    npt.assert_array_equal(loads.view(np.int64), want_loads.view(np.int64))


def far_coordinates(m):
    """Coordinates well outside [0, m): box clamps, huge magnitudes and -0.0."""
    return st.one_of(
        st.sampled_from([10.0 * m, -10.0 * m, -0.0, 0.0, float(m), -float(m), 1e300, -1e300]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    )


@st.composite
def mapper_cases(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    k = draw(st.one_of(st.none(), st.integers(1, 25)))  # None: one (n,) position
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.uniform(100.0, 1000.0, n)
    # identical columns make equal loads, so min(loads) meets ties
    mips = np.full(m, 1000.0) if tied else rng.uniform(500.0, 3000.0, m)
    etc = EtcMatrix(lengths, mips)

    positions = rng.uniform(0.0, m, n if k is None else (k, n))
    flat = positions.reshape(-1)
    cells = st.integers(0, flat.size - 1)
    for index, value in draw(st.lists(st.tuples(cells, far_coordinates(m)), max_size=12)):
        flat[index] = value

    # each row's peak raw load: a threshold at or above a row's peak keeps it clean
    peaks = [float(ref.map_with_loads(row, etc, math.inf)[1].max())
             for row in np.atleast_2d(positions)]
    threshold = draw(
        st.one_of(
            st.just(0.0),  # every row breaches at task 0
            st.just(0.5 * float((lengths[:, None] / mips).min())),
            st.just(max(peaks)),  # every row clean, the highest exactly at its peak
            st.sampled_from(peaks),  # rows at or below this peak clean, the rest breach
            # one ulp under a peak: that row breaches only on its last charge there
            st.sampled_from(peaks).map(lambda peak: float(np.nextafter(peak, 0.0))),
            st.floats(0.5 * min(peaks), 1.5 * max(peaks)),
            st.floats(1.0, 1.5).map(lambda theta: capacity_threshold(etc, theta)),
        )
    )
    return positions, etc, threshold


@settings(max_examples=300, deadline=None)
@given(case=mapper_cases())
def test_block_mapper_matches_the_sequential_reference(case):
    assert_maps_equal(*case)


def test_block_mapper_matches_the_reference_at_benchmark_sizes():
    rng = np.random.default_rng(7)
    for n, m, k in ((800, 4, 5), (5000, 8, 1), (8, 3, 20)):
        lengths = rng.pareto(1.5, n) * 100.0 + 100.0
        etc = EtcMatrix(lengths, rng.uniform(500.0, 3000.0, m))
        positions = rng.uniform(0.0, m, (k, n))
        for theta in (1.0, 1.2, 2.0):
            threshold = capacity_threshold(etc, theta)
            assert_maps_equal(positions, etc, threshold)
            assert_maps_equal(positions[0], etc, threshold)


def test_block_mixes_clean_and_breaching_rows():
    etc = EtcMatrix(np.full(3, 4.0), np.ones(2))  # every ETC is 4
    # row 0 spreads 2/1, row 1 piles all three tasks onto VM 0
    positions = np.array([[0.5, 1.5, 0.5], [0.5, 0.5, 0.5]])
    assignments, loads = map_with_loads(positions, etc, threshold=8.0)
    npt.assert_array_equal(assignments, [[0, 1, 0], [0, 0, 1]])
    npt.assert_array_equal(loads, [[8.0, 4.0], [8.0, 4.0]])


@settings(max_examples=300, deadline=None)
@given(
    coords=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 2.0**53, 2.0**63, 2.0**64]),
        ),
        min_size=1,
        max_size=30,
    ),
    m=st.integers(1, 64),
)
def test_fmod_decode_equals_the_mod_decode(coords, m):
    # floor(|x|) is non-negative, where fmod and mod agree bit for bit
    operand = np.floor(np.abs(np.array(coords)))
    npt.assert_array_equal(np.fmod(operand, m).view(np.int64), np.mod(operand, m).view(np.int64))
    npt.assert_array_equal(decode_position(coords, m), ref.decode(coords, m))


@st.composite
def decode_blocks(draw):
    """(k, n) blocks in [0, m), some rows given a coordinate from the fmod path's edges."""
    m = draw(st.integers(1, 64))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.uniform(0.0, m, (k, n))
    edges = [float(m), 10.0 * m, 1e300, -0.0, 2.0**63, -float(m), float(np.nextafter(m, 0.0))]
    # no marked row: the whole block lies in [0, m) and skips the mod
    for row in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        block[row, draw(st.integers(0, n - 1))] = draw(st.sampled_from(edges))
    return block, m


@settings(max_examples=300, deadline=None)
@given(case=decode_blocks())
def test_block_decode_equals_the_mod_decode(case):
    block, m = case
    before = block.copy()
    decoded = decode_position(block, m)
    assert decoded.dtype == np.int64
    npt.assert_array_equal(decoded, ref.decode(block, m))
    # the floor works in place on the decoder's own copy: even -0.0 stays as it was
    npt.assert_array_equal(block.view(np.int64), before.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(case=decode_blocks())
def test_arc_decode_on_unit_edges_is_the_plain_decode(case):
    # edges 1, ..., m - 1 make every arc a unit interval: the arc decode is
    # then the same function as floor(|x|) mod m, not a second one
    block, m = case
    unit = np.arange(1.0, m)
    npt.assert_array_equal(decode_position(block, m, unit).view(np.int64),
                           decode_position(block, m).view(np.int64))
    npt.assert_array_equal(ref.arc_decode(block, unit), ref.decode(block, m))


@st.composite
def speed_fleets(draw):
    """EtcMatrix of a few tasks on m VMs of random speeds, or of one speed."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    identical = draw(st.booleans())
    mips = np.full(m, 1000.0) if identical else rng.uniform(1.0, 5000.0, m)
    etc = EtcMatrix(rng.uniform(100.0, 1000.0, 3), mips)
    if identical:
        assert etc.arcs is None
    return etc, rng


@st.composite
def arc_blocks(draw):
    """(k, n) blocks on a fleet's speed arcs, some coordinates on an edge or far out."""
    etc, rng = draw(speed_fleets())
    m = etc.m
    arcs = np.arange(1.0, m) if etc.arcs is None else etc.arcs
    block = rng.uniform(0.0, m, (draw(st.integers(1, 8)), draw(st.integers(1, 30))))
    edges = [*arcs.tolist(), *(-arcs).tolist(), *(arcs + 3 * m).tolist(),
             float(m), -0.0, 1e300, float(np.nextafter(m, 0.0))]
    flat = block.reshape(-1)
    cells = st.integers(0, flat.size - 1)
    for index, value in draw(st.lists(st.tuples(cells, st.sampled_from(edges)), max_size=12)):
        flat[index] = value
    return block, arcs


@settings(max_examples=300, deadline=None)
@given(case=arc_blocks())
def test_arc_decode_counts_the_edges_at_or_below_each_point(case):
    block, arcs = case
    before = block.copy()
    decoded = decode_position(block, len(arcs) + 1, arcs)
    assert decoded.dtype == np.int64
    npt.assert_array_equal(decoded, ref.arc_decode(block, arcs))
    npt.assert_array_equal(block.view(np.int64), before.view(np.int64))


@st.composite
def wide_arc_blocks(draw):
    """(k, n) blocks on the arcs of up to 300 mixed-speed VMs, some coordinates on an edge."""
    # past 255 VMs a count held in one byte would wrap
    m = draw(st.one_of(st.integers(2, 16), st.integers(250, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arcs = EtcMatrix(np.ones(1), rng.uniform(1.0, 5000.0, m)).arcs
    block = rng.uniform(-2.0 * m, 2.0 * m, (draw(st.integers(1, 3)), draw(st.integers(1, 20))))
    edges = [*arcs.tolist(), *(-arcs).tolist(), *(arcs + m).tolist(),
             float(m), 3.0 * m, 1e300, float(np.nextafter(m, 0.0))]
    flat = block.reshape(-1)
    cells = st.integers(0, flat.size - 1)
    for index, value in draw(st.lists(st.tuples(cells, st.sampled_from(edges)), max_size=12)):
        flat[index] = value
    return block, arcs


@settings(max_examples=200, deadline=None)
@given(case=wide_arc_blocks())
def test_arc_decode_counts_the_edges_of_wide_fleets(case):
    block, arcs = case
    before = block.copy()
    decoded = decode_position(block, len(arcs) + 1, arcs)
    assert decoded.dtype == np.int64
    npt.assert_array_equal(decoded, ref.arc_decode(block, arcs))
    npt.assert_array_equal(block.view(np.int64), before.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(fleet=speed_fleets(), n=st.integers(1, 40))
def test_encode_plan_decodes_back_to_the_plan(fleet, n):
    etc, rng = fleet
    m = etc.m
    plan = rng.integers(0, m, n)
    position = encode_plan(plan, etc.arcs)
    if etc.arcs is None:
        npt.assert_array_equal(position, plan + 0.5)
    # a seed must lie in [0, m), the interval the swarm starts in
    assert np.all((position >= 0.0) & (position < m))
    npt.assert_array_equal(decode_position(position, m, etc.arcs), plan)
    arcs = etc.arcs
    npt.assert_array_equal(
        ref.decode(position, m) if arcs is None else ref.arc_decode(position, arcs), plan
    )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    m=st.integers(1, 8),
    theta=st.sampled_from([1.0, 1.05, 1.2, 2.0]),
    identical=st.booleans(),
    heavy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mapped_makespan_is_within_the_capacity_bound(n, m, theta, identical, heavy, seed):
    # A task that keeps its VM stays under theta * share. A rerouted task
    # goes to the least-loaded VM, whose load is at most share, since
    # sum_j mips_j * load_j never exceeds the total MI. So no VM ends above
    # max(theta * share, share + max ETC), whatever the decode proposed.
    rng = np.random.default_rng(seed)
    lengths = rng.lognormal(np.log(1000.0), 1.0, n) if heavy else rng.uniform(100.0, 1000.0, n)
    mips = np.full(m, 1000.0) if identical else rng.uniform(500.0, 3000.0, m)
    etc = EtcMatrix(lengths, mips)
    bound = max(theta * etc.share, etc.share + float((lengths[:, None] / mips).max()))
    positions = rng.uniform(0.0, m, (4, n))
    # every task proposed onto VM 0 breaches as early as a plan can
    positions[0] = 0.0
    _, loads = map_with_loads(positions, etc, capacity_threshold(etc, theta))
    assert loads.max() <= bound * (1 + 1e-12)


@pytest.mark.parametrize("arcs", [None, np.array([1.5, 2.5, 3.5])], ids=["plain", "arcs"])
@pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((3, 0))])
def test_decode_of_an_empty_input_is_an_empty_int64_array(empty, arcs):
    decoded = decode_position(empty, 4, arcs)
    assert decoded.dtype == np.int64
    assert decoded.shape == np.shape(empty)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decode_rejects_a_non_finite_coordinate_anywhere_in_an_in_range_block(bad):
    for index in np.ndindex(2, 3):
        block = np.full((2, 3), 1.5)
        block[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decode_position(block, 4)
