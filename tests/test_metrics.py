"""Schedule quality measures: makespan, throughput, CV, BOI, combined fitness."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from swarmsched.domain import build_etc
from swarmsched.metrics import default_beta, evaluate_assignment, load_vector, score_loads


def cv_of(loads):
    return score_loads(np.array(loads, dtype=float), 0.0)[1]


@pytest.fixture
def tiny_etc(tiny_workload, tiny_fleet):
    # [[0.1, 0.05], [0.5, 0.25]] seconds
    return build_etc(tiny_workload, tiny_fleet)


def test_throughput_hand_value(tiny_etc):
    # plan [1, 1] loads only VM 1, for 0.3 s: 2 tasks / 0.3 s
    report = evaluate_assignment([1, 1], tiny_etc, beta=0.1125)
    assert report.makespan_s == pytest.approx(0.3)
    assert report.throughput_tps == tiny_etc.n / report.makespan_s
    assert report.throughput_tps == pytest.approx(2.0 / 0.3)


def test_load_vector_sums_chosen_etcs(tiny_etc):
    npt.assert_allclose(load_vector([0, 1], tiny_etc), [0.1, 0.25])
    npt.assert_allclose(load_vector([1, 1], tiny_etc), [0.0, 0.3])


def test_cv_population_form():
    # loads [0.1, 0.25]: mean 0.175, population std 0.075, CV = 3/7
    assert cv_of([0.1, 0.25]) == pytest.approx(3.0 / 7.0)


def test_cv_uniform_loads_is_zero():
    assert cv_of([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_cv_uses_population_not_sample_std():
    loads = np.array([1.0, 2.0, 3.0, 4.0])
    expected = loads.std(ddof=0) / loads.mean()
    assert cv_of(loads) == pytest.approx(expected)
    assert cv_of(loads) != pytest.approx(loads.std(ddof=1) / loads.mean())


def test_cv_rejects_degenerate_input():
    with pytest.raises(ValueError, match="zero-size"):
        cv_of([])
    with pytest.raises(ValueError, match="zero mean"):
        cv_of([0.0, 0.0])


def test_boi_endpoints_and_monotonicity():
    # (makespan, CV, BOI, fitness) at beta 0: BOI falls as the CV grows
    assert score_loads(np.array([5.0, 5.0, 5.0, 5.0]), 0.0)[1:3] == (0.0, 1.0)
    assert score_loads(np.array([0.0, 2.0]), 0.0)[1:3] == (1.0, 0.5)
    # nine idle VMs and one with all the work: population CV sqrt(9) = 3
    assert score_loads(np.array([0.0] * 9 + [10.0]), 0.0)[1:3] == (3.0, 0.25)


def test_fitness_formula_and_validation():
    # loads [0.1, 0.25]: makespan 0.25, BOI 1 / (1 + 3/7) = 0.7
    _, _, boi, fit = score_loads(np.array([0.1, 0.25]), 0.1125)
    assert boi == pytest.approx(0.7)
    assert fit == pytest.approx(0.25 + 0.1125 * 0.3)
    # perfect balance adds no penalty
    assert score_loads(np.array([10.0, 10.0]), 5.0)[3] == 10.0
    with pytest.raises(ValueError, match="beta must be non-negative"):
        score_loads(np.array([1.0, 2.0]), -1.0)


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

    scored = score_loads(loads, beta)
    for got, want in zip(scored, (makespan, cv, boi, fit)):
        npt.assert_array_equal(got, want)
        assert np.shape(got) == np.shape(want)


# a one-VM fleet, three VMs, and a block of two rows: 1-D loads score to
# scalars, 2-D loads to one value per row
@pytest.mark.parametrize("shape", [(1,), (3,), (2, 3)])
def test_load_metrics_keep_their_checks_for_scalars_and_arrays(shape):
    # score_loads checks the zero mean and beta only; the rest follows from
    # them, and an empty last axis has no makespan
    with pytest.raises(ValueError, match="zero-size"):
        score_loads(np.ones(shape[:-1] + (0,)), 1.0)
    zero_row = np.ones(shape)
    zero_row.reshape(-1, shape[-1])[-1] = 0.0
    with pytest.raises(ValueError, match="undefined CV: zero mean load"):
        score_loads(zero_row, 1.0)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        score_loads(np.ones(shape), -1.0)
