"""Schedule quality measures: makespan, throughput, CV, BOI, combined fitness."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from swarmsched.domain import build_etc
from swarmsched.metrics import (
    balance_optimality_index,
    coefficient_of_variation,
    default_beta,
    evaluate_assignment,
    fitness,
    load_vector,
    score_loads,
    throughput,
)


@pytest.fixture
def tiny_etc(tiny_workload, tiny_fleet):
    # [[0.1, 0.05], [0.5, 0.25]] seconds
    return build_etc(tiny_workload, tiny_fleet)


def test_throughput_hand_value():
    assert throughput(2, 0.25) == pytest.approx(8.0)


def test_throughput_rejects_zero_makespan():
    with pytest.raises(ValueError, match="zero makespan"):
        throughput(5, 0.0)


def test_load_vector_sums_chosen_etcs(tiny_etc):
    npt.assert_allclose(load_vector([0, 1], tiny_etc), [0.1, 0.25])
    npt.assert_allclose(load_vector([1, 1], tiny_etc), [0.0, 0.3])


def test_cv_population_form():
    # loads [0.1, 0.25]: mean 0.175, population std 0.075, CV = 3/7
    assert coefficient_of_variation([0.1, 0.25]) == pytest.approx(3.0 / 7.0)


def test_cv_uniform_loads_is_zero():
    assert coefficient_of_variation([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_cv_uses_population_not_sample_std():
    loads = np.array([1.0, 2.0, 3.0, 4.0])
    expected = loads.std(ddof=0) / loads.mean()
    assert coefficient_of_variation(loads) == pytest.approx(expected)
    assert coefficient_of_variation(loads) != pytest.approx(
        loads.std(ddof=1) / loads.mean()
    )


def test_cv_rejects_degenerate_input():
    with pytest.raises(ValueError, match="no loads"):
        coefficient_of_variation([])
    with pytest.raises(ValueError, match="zero mean"):
        coefficient_of_variation([0.0, 0.0])


def test_boi_endpoints_and_monotonicity():
    assert balance_optimality_index(0.0) == 1.0
    assert balance_optimality_index(1.0) == 0.5
    assert balance_optimality_index(3.0) == 0.25
    with pytest.raises(ValueError, match="non-negative"):
        balance_optimality_index(-0.1)


def test_fitness_formula_and_validation():
    assert fitness(0.25, 0.7, 0.1125) == pytest.approx(0.25 + 0.1125 * 0.3)
    assert fitness(10.0, 1.0, 5.0) == 10.0  # perfect balance adds no penalty
    with pytest.raises(ValueError, match="makespan_s must be positive"):
        fitness(0.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="boi must lie"):
        fitness(1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="boi must lie"):
        fitness(1.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        fitness(1.0, 0.5, -1.0)


def test_default_beta_hand_value(tiny_etc):
    # mean ETC 0.225 s, n=2, m=2: 0.5 * 0.225 * 2 / 2
    assert default_beta(tiny_etc) == pytest.approx(0.1125)


def test_evaluate_assignment_end_to_end(tiny_etc):
    report = evaluate_assignment([0, 1], tiny_etc, beta=0.1125)
    assert report.makespan_s == pytest.approx(0.25)
    assert report.throughput_tps == pytest.approx(8.0)
    assert report.cv == pytest.approx(3.0 / 7.0)
    assert report.boi == pytest.approx(0.7)
    assert report.fitness == pytest.approx(0.28375)


positive_loads = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=9),
    elements=st.floats(1e-6, 1e6),
)


@settings(max_examples=200, deadline=None)
@given(loads=positive_loads, beta=st.floats(0.0, 1e4))
def test_load_metrics_equal_numpys_mean_and_std_bit_for_bit(loads, beta):
    # the formulas as np.mean, np.std and np.max spell them
    makespan = np.max(loads, axis=-1)
    cv = loads.std(axis=-1) / loads.mean(axis=-1)
    boi = 1.0 / (1.0 + cv)
    fit = makespan + beta * (1.0 - boi)

    got_cv = coefficient_of_variation(loads)
    got_boi = balance_optimality_index(got_cv)
    got_fit = fitness(makespan, got_boi, beta)
    for got, want in ((got_cv, cv), (got_boi, boi), (got_fit, fit)):
        npt.assert_array_equal(got, want)
        assert np.shape(got) == np.shape(want)
    if loads.ndim == 1:
        assert type(got_cv) is float
    scored = score_loads(loads, beta)
    for got, want in zip(scored, (makespan, got_cv, got_boi, got_fit)):
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_load_metrics_keep_their_checks_for_scalars_and_arrays(shape):
    def spoil(value, bad):
        """value broadcast to shape, with its last entry replaced by bad."""
        arr = np.full(shape, value)
        arr.flat[-1] = bad
        return arr[()]

    # load vectors are 1-D or rows of a 2-D block
    loads_shape = shape or (3,)
    with pytest.raises(ValueError, match="undefined CV: no loads"):
        coefficient_of_variation(np.ones(loads_shape[:-1] + (0,)))
    zero_row = np.ones(loads_shape)
    zero_row.reshape(-1, loads_shape[-1])[-1] = 0.0
    with pytest.raises(ValueError, match="undefined CV: zero mean load"):
        coefficient_of_variation(zero_row)
    # score_loads checks the zero mean and beta only; the rest follows from them
    with pytest.raises(ValueError, match="undefined CV: zero mean load"):
        score_loads(zero_row, 1.0)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        score_loads(np.ones(loads_shape), -1.0)
    with pytest.raises(ValueError, match="cv must be non-negative"):
        balance_optimality_index(spoil(0.5, -0.1))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="makespan_s must be positive"):
            fitness(spoil(2.0, bad), spoil(0.5, 0.5), 1.0)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="boi must lie in"):
            fitness(spoil(2.0, 2.0), spoil(0.5, bad), 1.0)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        fitness(spoil(2.0, 2.0), spoil(0.5, 0.5), -1.0)
