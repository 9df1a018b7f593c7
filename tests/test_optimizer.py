"""Swarm optimizer internals: schedules, update rules, mutation, full runs."""

from __future__ import annotations

import csv
import importlib.util
import io
import math
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist

import reference_optimizer as ref
from swarmsched import optimizer
from swarmsched.domain import build_etc
from swarmsched.encoding import capacity_threshold, decode_position, map_with_loads
from swarmsched.metrics import default_beta, evaluate_assignment
from swarmsched.workload import SyntheticSpec, generate_synthetic, standard_fleet
from swarmsched.optimizer import (
    ConvergenceLog,
    OptimizerConfig,
    blend_weight,
    combined_update,
    gwo_coefficient_a,
    gwo_guidance,
    initialize_swarm,
    inject_mutation,
    leader_offsets,
    run,
    run_pure_gwo,
    run_pure_pso,
    step,
    swarm_diversity,
    velocity_update,
)

from conftest import random_instance


def guidance_draws(n, a=0.0, c=0.0):
    """One particle's per-step guidance draws as a (1, 6n) block: A (3n), then C (3n)."""
    return np.concatenate([np.full(3 * n, a), np.full(3 * n, c)])[np.newaxis]


def velocity_draws(n, r1=0.0, r2=0.0):
    """One particle's per-step velocity draws as a (1, 2n) block: r1 (n), then r2 (n)."""
    return np.concatenate([np.full(n, r1), np.full(n, r2)])[np.newaxis]


def velocity(positions, velocities, personal_bests, global_best, config, draws, period):
    """velocity_update pulled toward global_best, whose offsets it takes as a step computes them."""
    alpha_offsets = leader_offsets(positions, global_best[np.newaxis], period)[:, 0]
    return velocity_update(positions, velocities, personal_bests, alpha_offsets, config, draws, period)


def guidance(positions, leaders, a, draws, period):
    """gwo_guidance toward leaders, whose offsets it takes as a step computes them."""
    return gwo_guidance(positions, leader_offsets(positions, leaders, period), a, draws)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="swarm_size"):
        OptimizerConfig(swarm_size=1)
    with pytest.raises(ValueError, match="max_iterations"):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError, match="lambda"):
        OptimizerConfig(lambda_max=0.4, lambda_min=0.9)
    with pytest.raises(ValueError, match="lambda"):
        OptimizerConfig(lambda_max=1.5)
    with pytest.raises(ValueError, match="non-negative"):
        OptimizerConfig(inertia=-0.1)
    with pytest.raises(ValueError, match="v_max"):
        OptimizerConfig(v_max=0.0)
    with pytest.raises(ValueError, match="d_min"):
        OptimizerConfig(d_min=-1.0)
    with pytest.raises(ValueError, match="beta"):
        OptimizerConfig(beta=-1.0)
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=-1)


@pytest.mark.parametrize("name", ["swarm_size", "max_iterations", "seed"])
@pytest.mark.parametrize("value", [20.0, 5.0, 3.0, True, np.float64(4.0), "4"])
def test_config_rejects_non_integer_counts(name, value):
    # a float count used to construct and then fail mid-run, a float seed
    # inside SeedSequence, and True ran as 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("name", ["swarm_size", "max_iterations", "seed"])
def test_config_accepts_numpy_integers(name):
    assert getattr(OptimizerConfig(**{name: np.int64(4)}), name) == 4


# a value each float knob accepts, whole so that it can be given as an int
FLOAT_KNOBS = {"lambda_max": 1, "lambda_min": 0, "inertia": 1, "c1": 2, "c2": 2, "v_max": 3,
               "d_min": 0, "beta": 2, "headroom_theta": 2}


@pytest.mark.parametrize("name", FLOAT_KNOBS)
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_config_rejects_bool_float_knobs(name, value):
    # a bool compares as 0 or 1: inertia=True and d_min=False used to run
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("name", FLOAT_KNOBS)
@pytest.mark.parametrize("kind", [int, float, np.float64])
def test_config_accepts_ints_and_numpy_floats_for_float_knobs(name, kind):
    value = kind(FLOAT_KNOBS[name])
    assert getattr(OptimizerConfig(**{name: value}), name) == value


def test_resolve_fills_instance_scaled_defaults(tiny_workload, tiny_fleet):
    etc = build_etc(tiny_workload, tiny_fleet)  # n=2, m=2
    cfg = OptimizerConfig().resolve(etc)
    assert cfg.v_max == 20.0  # ten decode periods
    assert cfg.d_min == pytest.approx(0.05 * 2 * math.sqrt(2))
    assert cfg.beta == pytest.approx(default_beta(etc))


def test_resolve_keeps_explicit_values(tiny_workload, tiny_fleet):
    etc = build_etc(tiny_workload, tiny_fleet)
    cfg = OptimizerConfig(v_max=3.0, d_min=1.0, beta=9.0)
    resolved = cfg.resolve(etc)
    assert (resolved.v_max, resolved.d_min, resolved.beta) == (3.0, 1.0, 9.0)


# ------------------------------------------------------------- schedules


def test_blend_weight_linear_decay():
    cfg = OptimizerConfig(max_iterations=50)
    assert blend_weight(0, cfg) == pytest.approx(0.9)
    assert blend_weight(50, cfg) == pytest.approx(0.4)
    assert blend_weight(25, cfg) == pytest.approx(0.65)
    with pytest.raises(ValueError, match="outside"):
        blend_weight(51, cfg)
    with pytest.raises(ValueError, match="outside"):
        blend_weight(-1, cfg)


def test_gwo_coefficient_linear_decay():
    cfg = OptimizerConfig(max_iterations=50)
    assert gwo_coefficient_a(0, cfg) == pytest.approx(2.0)
    assert gwo_coefficient_a(50, cfg) == pytest.approx(0.0)
    assert gwo_coefficient_a(25, cfg) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="outside"):
        gwo_coefficient_a(51, cfg)


# ------------------------------------------------------------ update math

# A decode period wide enough that none of the hand-worked offsets below
# wraps, so each expected value is plain arithmetic.
PERIOD = 16


def test_velocity_update_forced_draws():
    # w=1, c1=c2=1, r1=r2=1, V=0, X=0, P=2, G=4: v = (2-0) + (4-0) = 6
    cfg = OptimizerConfig(inertia=1.0, c1=1.0, c2=1.0, v_max=10.0)
    velocities = np.zeros((1, 2))
    out = velocity(
        np.zeros((1, 2)),
        velocities,
        np.full((1, 2), 2.0),
        np.full(2, 4.0),
        cfg,
        velocity_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[6.0, 6.0]])
    assert out is velocities  # the new velocities overwrite the old


def test_velocity_update_clamps_to_v_max():
    cfg = OptimizerConfig(inertia=1.0, c1=1.0, c2=1.0, v_max=5.0)
    out = velocity(
        np.zeros((1, 2)),
        np.zeros((1, 2)),
        np.full((1, 2), 2.0),
        np.full(2, 4.0),
        cfg,
        velocity_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[5.0, 5.0]])


def test_velocity_update_keeps_inertia_only_when_pulls_vanish():
    cfg = OptimizerConfig(inertia=0.7, c1=1.5, c2=1.5, v_max=10.0)
    positions = np.array([[1.0, -2.0]])
    out = velocity(
        positions,
        np.array([[2.0, 2.0]]),
        positions.copy(),
        positions[0].copy(),
        cfg,
        velocity_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[1.4, 1.4]])


# alpha, beta and delta of a one-coordinate pack, one leader per row
LEADERS = np.array([[4.0], [2.0], [0.0]])


def test_gwo_guidance_full_step_lands_on_origin():
    # a=1 with A draws of 1 gives A=1; C draws of 0.5 give C=1; X=0 so each
    # leader maps to 0
    out = guidance(
        np.array([[0.0]]),
        LEADERS,
        a=1.0,
        draws=guidance_draws(1, a=1.0, c=0.5),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[0.0]])


def test_gwo_guidance_zero_a_is_leader_centroid():
    out = guidance(
        np.array([[7.0]]),
        LEADERS,
        a=0.0,
        draws=guidance_draws(1, a=0.123, c=0.456),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[2.0]])


def test_gwo_guidance_fixed_point_at_converged_leaders():
    x = np.array([3.0, -1.0])
    out = guidance(
        x[np.newaxis],
        np.stack([x, x, x]),
        a=1.7,
        draws=guidance_draws(2, a=0.3, c=0.5),
        period=PERIOD,
    )
    npt.assert_allclose(out, [x])


def test_gwo_guidance_draw_order_is_a_then_c():
    # A particle's row of draws starts with the 3n A draws, then the 3n C
    # draws. A row of [1.0] * 3n + [0.0] * 3n gives A=a=1 and C=0, so each
    # guided point x + D - A * |C * D| is its own leader and the mean is
    # (4 + 2 + 0) / 3. The reversed layout (A=-1, C=2) would give
    # x + D + 2|D| over D = 3, 1, -1: 16/3.
    out = guidance(
        np.array([[1.0]]),
        LEADERS,
        a=1.0,
        draws=guidance_draws(1, a=1.0, c=0.0),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[2.0]])
    # and a hybrid step's rows are drawn in stream order: A, C, r1, r2
    n = 5
    row = np.empty(8 * n)
    np.random.default_rng(4).random(out=row)
    rng = np.random.default_rng(4)
    parts = [rng.random((3, n)).ravel(), rng.random((3, n)).ravel(), rng.random(n), rng.random(n)]
    npt.assert_array_equal(row, np.concatenate(parts))


def test_gwo_guidance_consumes_exactly_two_draws():
    # Guidance reads every column of its two 3n-draw segments, A and C, and
    # the velocity update every column of its r1 and r2.
    n = 3
    cfg = OptimizerConfig(v_max=10.0)
    positions = np.zeros((1, n))
    leaders = np.array([np.ones(n), np.full(n, 2.0), np.full(n, 3.0)])

    def guide(draws):
        return guidance(positions, leaders, a=1.0, draws=draws, period=PERIOD)

    def pull(draws):
        return velocity(
            positions, np.zeros((1, n)), np.ones((1, n)), np.full(n, 2.0), cfg, draws, PERIOD
        )

    for rule, base in ((guide, guidance_draws(n, a=0.3, c=0.3)),
                       (pull, velocity_draws(n, r1=0.3, r2=0.3))):
        for column in range(base.shape[1]):
            moved = base.copy()
            moved[0, column] = 0.9
            assert not np.array_equal(rule(moved), rule(base)), (rule.__name__, column)


def test_gwo_guidance_rejects_negative_a():
    with pytest.raises(ValueError, match="non-negative"):
        gwo_guidance(np.zeros((1, 1)), np.ones((1, 3, 1)), -0.1, guidance_draws(1))


def test_combined_update_blends_and_boxes():
    position = np.array([2.0])
    out = combined_update(position, np.array([4.0]), 0.5, np.array([0.0]), period=PERIOD)
    npt.assert_allclose(out, [3.0])
    assert out is position  # the move overwrites the position
    # blend 0 is a pure velocity move, blend 1 pure guidance
    npt.assert_allclose(
        combined_update(np.array([2.0]), np.array([4.0]), 0.0, np.array([1.0]), PERIOD), [3.0]
    )
    npt.assert_allclose(
        combined_update(np.array([2.0]), np.array([4.0]), 1.0, np.array([1.0]), PERIOD), [4.0]
    )
    # outside the decode period the proposal folds back in: 50 mod 16 = 2,
    # and -3 mod 16 = 13
    npt.assert_allclose(
        combined_update(np.array([50.0]), np.array([50.0]), 0.5, np.array([0.0]), PERIOD), [2.0]
    )
    npt.assert_allclose(
        combined_update(np.array([-3.0]), np.array([-3.0]), 0.5, np.array([0.0]), PERIOD), [13.0]
    )


def test_combined_update_rejects_blend_outside_unit_interval():
    with pytest.raises(ValueError, match="blend"):
        combined_update(np.zeros(1), np.zeros(1), 1.5, np.zeros(1), 10.0)
    with pytest.raises(ValueError, match="blend"):
        combined_update(np.zeros(1), np.zeros(1), -0.1, np.zeros(1), 10.0)


def test_one_update_keeps_uniform_decodes_uniform():
    # Positions and attractors spread evenly over the decode period must
    # still decode evenly after one move. Plain differences and the
    # origin-scaled |C * L - X| pull coordinates toward the middle of the
    # period instead: pure guidance at a = 0 then decodes 0.08/0.44/0.42/0.07.
    m, n = 4, 4000
    rng = np.random.default_rng(2026)
    position, pbest, gbest, *leaders = rng.uniform(0.0, m, (6, n))
    position, pbest = position[np.newaxis], pbest[np.newaxis]
    proposals = {}
    for a in (0.0, 1.0, 2.0):
        # a hybrid row's 8n draws, of which guidance reads the first 6n
        draws = rng.random((1, 8 * n))[:, : 6 * n]
        guide = guidance(position, np.stack(leaders), a, draws, m)
        proposals[f"guidance at a={a}"] = combined_update(
            position.copy(), guide, 1.0, np.zeros(n), m
        )
    config = OptimizerConfig(v_max=10.0 * m)
    draws = rng.random((1, 8 * n))[:, 6 * n :]
    moved = velocity(position, np.zeros((1, n)), pbest, gbest, config, draws, m)
    proposals["velocity"] = combined_update(position.copy(), np.zeros((1, n)), 0.0, moved, m)
    for label, proposal in proposals.items():
        shares = np.bincount(decode_position(proposal[0], m), minlength=m) / n
        npt.assert_allclose(shares, 0.25, atol=0.03, err_msg=label)


# ---------------------------------------------------- diversity and kicks


def test_swarm_diversity_hand_values():
    # both exact in float64
    assert swarm_diversity([[0.0, 0.0], [3.0, 4.0]]) == 5.0
    # collinear 0, 1, 2: pair distances 1, 2, 1
    assert swarm_diversity([[0.0], [1.0], [2.0]]) == 4.0 / 3.0


def _laid_out(points: np.ndarray, layout: str):
    """points as the layout holds them: C or Fortran order, a strided view, nested lists."""
    if layout == "fortran":
        return np.asfortranarray(points)
    if layout == "strided":
        # every other row and column of a larger array
        host = np.zeros((2 * points.shape[0], 2 * points.shape[1]))
        host[::2, ::2] = points
        return host[::2, ::2]
    if layout == "lists":
        return points.tolist()
    return np.ascontiguousarray(points)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 64)),
        elements=st.floats(-1e6, 1e6),
    ),
    st.sampled_from(["c", "fortran", "strided", "lists"]),
)
def test_swarm_diversity_is_the_mean_of_pdist_bit_for_bit(points, layout):
    distances = pdist(points)
    want = float(np.add.reduce(distances) / distances.size)
    assert swarm_diversity(_laid_out(points, layout)) == want


def test_swarm_diversity_calls_the_compiled_kernel_not_pdist(monkeypatch):
    # on an install with scipy's private pybind module, the diversity skips
    # pdist's dispatch and calls the kernel it ends in
    from scipy.spatial import _distance_pybind, distance

    assert optimizer._pdist_euclidean is _distance_pybind.pdist_euclidean

    def refuse(*args, **kwargs):
        raise AssertionError("swarm_diversity called scipy.spatial.distance.pdist")

    monkeypatch.setattr(distance, "pdist", refuse)
    assert swarm_diversity([[0.0, 0.0], [3.0, 4.0]]) == 5.0


def test_swarm_diversity_falls_back_to_pdist_without_the_private_module(monkeypatch):
    # a scipy that moved its private module: a fresh copy of the optimizer
    # module, imported with that module missing, binds pdist and gives the
    # same numbers
    from scipy.spatial import distance

    monkeypatch.setitem(sys.modules, "scipy.spatial._distance_pybind", None)
    spec = importlib.util.spec_from_file_location(
        "swarmsched._optimizer_without_pybind", optimizer.__file__
    )
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback._pdist_euclidean is distance.pdist
    points = np.random.default_rng(7).uniform(0.0, 3.0, (20, 8))
    assert fallback.swarm_diversity(points) == swarm_diversity(points)


def test_swarm_diversity_needs_two_particles():
    with pytest.raises(ValueError, match="at least two"):
        swarm_diversity([[1.0, 2.0]])


def test_mutation_sigma_grows_as_diversity_collapses(monkeypatch):
    _, _, etc = small_problem()
    m = etc.m
    sigmas = []
    monkeypatch.setattr(
        optimizer, "inject_mutation", lambda positions, sigma, rng, period: sigmas.append(sigma)
    )
    probe = initialize_swarm(etc, OptimizerConfig(seed=3).resolve(etc), np.random.default_rng(3))
    # diversity at half the floor, then at 95% of it, where the kick
    # bottoms out at 0.01m
    for floor_share, want in [(0.5, 0.05 * m), (0.95, 0.01 * m)]:
        d_min = swarm_diversity(probe.positions) / floor_share
        cfg = OptimizerConfig(seed=3, d_min=d_min).resolve(etc)
        rng = np.random.default_rng(cfg.seed)
        log = ConvergenceLog()
        step(initialize_swarm(etc, cfg, rng), etc, cfg, rng, log)
        diversity = log.rows[0].diversity
        assert log.rows[0].mutated and diversity / d_min == pytest.approx(floor_share)
        sigma = sigmas.pop()
        assert sigma == max(0.1 * m * (1.0 - diversity / d_min), 0.01 * m)
        assert sigma == pytest.approx(want)


def test_inject_mutation_moves_positions_only():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=4, seed=5).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    state.velocities[:] = 0.5
    before = state.particles
    inject_mutation(state.positions, sigma=0.3, rng=rng, period=PERIOD)
    for p, old in zip(state.particles, before):
        assert not np.array_equal(p.position, old.position)
        assert np.all((p.position >= 0.0) & (p.position <= PERIOD))
        npt.assert_array_equal(p.velocity, old.velocity)
        npt.assert_array_equal(p.personal_best_position, old.personal_best_position)
        assert p.personal_best_fitness == old.personal_best_fitness


def test_inject_mutation_is_deterministic_per_seed():
    # kicking the rows one by one from one generator equals one (k, n) draw
    positions = np.full((3, 4), 0.5)
    inject_mutation(positions, 0.5, np.random.default_rng(9), period=PERIOD)
    kicked = 0.5 + np.random.default_rng(9).normal(0.0, 0.5, (3, 4))
    assert np.any(kicked < 0.0)
    npt.assert_array_equal(positions, kicked - PERIOD * np.floor(kicked / PERIOD))


def test_inject_mutation_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma"):
        inject_mutation(np.zeros((1, 1)), 0.0, np.random.default_rng(0), period=PERIOD)


class CountingNormals:
    """Wraps a Generator and counts its normal calls; it has no other method."""

    def __init__(self, rng):
        self._rng = rng
        self.normal_calls = 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self._rng.normal(*args, **kwargs)


def test_inject_mutation_kicks_each_block_as_its_rows_one_by_one():
    # 1500 tasks kick a swarm of 7 in 4 blocks of at most two rows, one
    # normal draw per block; the kicks are the per-row draws bit for bit
    n, swarm, sigma = 1500, 7, 0.4
    start = np.random.default_rng(1).uniform(0.0, PERIOD, (swarm, n))
    positions = start.copy()
    generator = np.random.default_rng(2)
    rng = CountingNormals(generator)
    inject_mutation(positions, sigma, rng, PERIOD)
    assert rng.normal_calls == 4
    twin = np.random.default_rng(2)
    for row, moved in zip(start, positions):
        kicked = row + twin.normal(0.0, sigma, n)
        npt.assert_array_equal(moved, kicked - PERIOD * np.floor(kicked / PERIOD))
    assert generator.bit_generator.state == twin.bit_generator.state


# ------------------------------------------------------- swarm lifecycle


def small_problem(seed=0, n=12, m=3):
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    return workload, fleet, build_etc(workload, fleet)


def test_initialize_swarm_population_invariants():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=6, seed=42).resolve(etc)
    state = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed))

    threshold = capacity_threshold(etc, cfg.headroom_theta)
    assert state.threshold == threshold
    fits = []
    for p in state.particles:
        assert p.position.shape == (etc.n,)
        assert np.all(p.position >= 0.0) and np.all(p.position < etc.m)
        npt.assert_array_equal(p.velocity, np.zeros(etc.n))
        npt.assert_array_equal(p.personal_best_position, p.position)
        assignment, _ = map_with_loads(p.position, etc, threshold)
        report = evaluate_assignment(assignment, etc, cfg.beta)
        assert p.personal_best_fitness == pytest.approx(report.fitness)
        fits.append(report.fitness)

    alpha_fitness, beta_fitness, delta_fitness = state.leader_fitness
    assert alpha_fitness <= beta_fitness <= delta_fitness
    assert alpha_fitness == pytest.approx(min(fits))
    assert state.iteration == 0


def test_initialize_swarm_leaders_finite_for_minimal_swarm():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=2, seed=1).resolve(etc)
    state = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed))
    assert np.all(np.isfinite(state.leader_fitness))
    # beta is the second row by fitness; delta mirrors it
    assert state.leader_fitness[1] == state.personal_best_fitness.max()
    npt.assert_array_equal(state.leaders[2], state.leaders[1])
    assert state.leader_fitness[2] == state.leader_fitness[1]


def test_initialize_swarm_ranks_tied_rows_in_row_order():
    # positions that decode to one plan tie on fitness; the leaders rank
    # ties in row order, so earlier rows lead
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=3, seed=3).resolve(etc)
    plan = np.arange(etc.n) % etc.m
    # a quarter, half and three quarters of the way along each task's VM arc
    edges = np.concatenate(([0.0], etc.arcs, [etc.m]))
    start, width = edges[plan], np.diff(edges)[plan]
    seeds = [start + share * width for share in (0.25, 0.5, 0.75)]
    state = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed), seeds)
    assert len(set(state.personal_best_fitness.tolist())) == 1
    npt.assert_array_equal(state.leaders, np.stack(seeds))


# Rounds of scripted fitnesses, one per row: the initial swarm's, then one per
# step. Round r's values come from {-r, 1 - r, 2 - r}, so rows tie with each
# other and with the leaders, and each round can still beat the last.
SCRIPTED_ROUNDS = st.integers(2, 40).flatmap(
    lambda swarm: st.lists(
        st.lists(st.integers(0, 2), min_size=swarm, max_size=swarm), min_size=1, max_size=5
    )
)


@settings(max_examples=150, deadline=None)
@given(SCRIPTED_ROUNDS)
@example([[1, 0]])
@example([[2, 2], [2, 2], [0, 1]])
def test_leader_merge_equals_the_reference_cascade(rounds):
    # The optimizer ranks its leaders with one stable sort; the reference
    # pushes each evaluated row through the classic cascade. With the
    # fitness scripted, both keep the same rows and fitnesses, bit for bit,
    # after every round, including a pack of two's initial delta = beta.
    workload, fleet, etc = small_problem(n=4, m=2)
    cfg = OptimizerConfig(swarm_size=len(rounds[0]), seed=8).resolve(etc)
    fitness = [np.array(values, dtype=float) - r for r, values in enumerate(rounds)]
    scripted = iter(fitness)
    rng = np.random.default_rng(cfg.seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_evaluate_swarm", lambda *args: next(scripted).copy())
        for r, fit in enumerate(fitness):
            if r == 0:
                state = initialize_swarm(etc, cfg, rng)
                # the reference's starting pack: every leader unset at fitness inf
                unset = state.positions[0].copy()
                pack = ref.RefState([], unset, math.inf, None, unset, unset, unset)
            else:
                step(state, etc, cfg, rng, ConvergenceLog())
            for position, value in zip(state.positions, fit.tolist()):
                ref._cascade(pack, position, value)
            if not math.isfinite(pack.delta_fitness):
                pack.delta, pack.delta_fitness = pack.beta_wolf.copy(), pack.beta_fitness
            npt.assert_array_equal(
                state.leaders, np.stack([pack.alpha, pack.beta_wolf, pack.delta])
            )
            assert state.leader_fitness.tolist() == [
                pack.alpha_fitness,
                pack.beta_fitness,
                pack.delta_fitness,
            ]


def test_initialize_swarm_seeded_positions_take_first_slots():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=4, seed=3).resolve(etc)
    seed_pos = np.linspace(0.25, 2.25, etc.n)
    state = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed), [seed_pos])
    npt.assert_array_equal(state.particles[0].position, seed_pos)


def _with_coordinate(n, value):
    position = np.full(n, 0.5)
    position[n // 2] = value
    return position


BAD_SEEDS = {
    "shape (1,)": lambda n, m: np.array([1.5]),
    "shape ()": lambda n, m: np.array(1.5),
    "shape (1, n)": lambda n, m: np.full((1, n), 1.5),
    "shape (n + 1,)": lambda n, m: np.full(n + 1, 1.5),
    "-0.5": lambda n, m: _with_coordinate(n, -0.5),
    "m": lambda n, m: _with_coordinate(n, m),
    "1e6": lambda n, m: _with_coordinate(n, 1e6),
    "nan": lambda n, m: _with_coordinate(n, np.nan),
}


@pytest.mark.parametrize("make_seed", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
def test_run_rejects_seeds_of_the_wrong_shape_or_outside_the_period(make_seed):
    # a (1,) or () seed would otherwise broadcast over the whole row, and a
    # coordinate outside [0, m) cannot be folded in without changing its decode
    workload, fleet, etc = small_problem()
    good = np.full(etc.n, 0.5)
    config = OptimizerConfig(swarm_size=4, max_iterations=1, seed=3)
    with pytest.raises(ValueError, match=r"seeded position 1 must have shape \(12,\)"):
        run(workload, fleet, config, seeded_positions=[good, make_seed(etc.n, etc.m)])


def test_initialize_swarm_rejects_too_many_seeds():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=2, seed=0).resolve(etc)
    seeds = [np.zeros(etc.n)] * 3
    with pytest.raises(ValueError, match="exceed swarm_size"):
        initialize_swarm(etc, cfg, np.random.default_rng(0), seeds)


def test_swarm_state_particles_are_copies_of_the_matrices():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=3, seed=4).resolve(etc)
    state = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed))
    first = state.particles[0]
    npt.assert_array_equal(first.position, state.positions[0])
    assert first.personal_best_fitness == state.personal_best_fitness[0]
    first.position[:] = -1.0
    assert np.all(state.positions[0] >= 0.0)
    with pytest.raises(AttributeError):
        first.personal_best_fitness = 0.0


def test_default_v_max_never_binds_at_800x4():
    # wrapped offsets keep |v| <= (c1 + c2) * m / (2 * (1 - w)) = 5m at the
    # defaults, half of the default v_max of 10m
    workload = generate_synthetic(SyntheticSpec(800, seed=2026))
    etc = build_etc(workload, standard_fleet(4))
    cfg = OptimizerConfig(seed=2026).resolve(etc)
    bound = (cfg.c1 + cfg.c2) * etc.m / (2.0 * (1.0 - cfg.inertia))
    assert bound == pytest.approx(5 * etc.m)
    assert bound < cfg.v_max == 10 * etc.m
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
        assert np.abs(state.velocities).max() <= bound


def test_step_counts_iterations_from_one():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=5, max_iterations=10, seed=7).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    step(state, etc, cfg, rng, log)
    assert state.iteration == 1
    assert log.rows[0].iteration == 1
    assert log.rows[0].blend_weight == pytest.approx(blend_weight(1, cfg))
    assert log.rows[0].gwo_a == pytest.approx(gwo_coefficient_a(1, cfg))


def test_step_keeps_positions_in_the_decode_period_and_elitism_holds():
    workload, fleet, etc = small_problem(seed=5)
    cfg = OptimizerConfig(swarm_size=8, max_iterations=30, seed=11).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    best_so_far = state.leader_fitness[0]
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
        assert state.leader_fitness[0] <= best_so_far + 1e-12
        best_so_far = state.leader_fitness[0]
        # every move folds into [0, m]; rounding may land exactly on m
        assert np.all((state.positions >= 0.0) & (state.positions <= etc.m))
    series = log.best_fitness_series()
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def test_step_last_iteration_hits_schedule_endpoints():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=4, max_iterations=5, seed=2).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
    assert log.rows[-1].blend_weight == pytest.approx(cfg.lambda_min)
    assert log.rows[-1].gwo_a == pytest.approx(0.0)


def test_mutation_fires_when_diversity_floor_is_high():
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=5, max_iterations=5, seed=1, d_min=1e9).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
    assert all(row.mutated for row in log.rows)


def test_mutation_never_fires_when_disabled():
    # a zero floor disables mutation: diversity is never negative
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=5, max_iterations=5, seed=1, d_min=0.0).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
    assert not any(row.mutated for row in log.rows)


# --------------------------------------------------------------- full runs


def test_run_is_deterministic_per_seed():
    workload, fleet, _ = small_problem(seed=21, n=20, m=4)
    cfg = OptimizerConfig(swarm_size=8, max_iterations=15, seed=77)
    a1, r1, log1 = run(workload, fleet, cfg)
    a2, r2, log2 = run(workload, fleet, cfg)
    npt.assert_array_equal(a1, a2)
    assert r1 == r2
    assert log1.rows == log2.rows


def test_run_seed_changes_trajectory():
    workload, fleet, _ = small_problem(seed=21, n=20, m=4)
    _, _, log_a = run(workload, fleet, OptimizerConfig(swarm_size=8, max_iterations=15, seed=1))
    _, _, log_b = run(workload, fleet, OptimizerConfig(swarm_size=8, max_iterations=15, seed=2))
    assert log_a.rows != log_b.rows


def test_run_report_matches_returned_assignment():
    workload, fleet, etc = small_problem(seed=4, n=15, m=3)
    cfg = OptimizerConfig(swarm_size=6, max_iterations=10, seed=3)
    assignment, report, log = run(workload, fleet, cfg)
    assert assignment.shape == (15,)
    resolved = cfg.resolve(etc)
    recomputed = evaluate_assignment(assignment, etc, resolved.beta)
    assert recomputed == report
    assert len(log.rows) == cfg.max_iterations
    assert report.fitness == pytest.approx(log.rows[-1].best_fitness)


def test_run_logs_one_row_per_iteration_with_monotone_best():
    workload, fleet, _ = small_problem(seed=8, n=25, m=4)
    _, _, log = run(workload, fleet, OptimizerConfig(swarm_size=10, max_iterations=20, seed=5))
    assert [row.iteration for row in log.rows] == list(range(1, 21))
    series = log.best_fitness_series()
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def test_pure_pso_pins_blend_to_velocity_only():
    workload, fleet, _ = small_problem(seed=2, n=15, m=3)
    _, _, log = run_pure_pso(workload, fleet, OptimizerConfig(swarm_size=6, max_iterations=8))
    assert all(row.blend_weight == 0.0 for row in log.rows)
    assert not any(row.mutated for row in log.rows)


def test_pure_gwo_pins_blend_to_guidance_only():
    workload, fleet, _ = small_problem(seed=2, n=15, m=3)
    _, _, log = run_pure_gwo(workload, fleet, OptimizerConfig(swarm_size=6, max_iterations=8))
    assert all(row.blend_weight == 1.0 for row in log.rows)
    assert not any(row.mutated for row in log.rows)


@pytest.mark.parametrize("ablation", [run_pure_pso, run_pure_gwo])
def test_ablations_never_mutate_whatever_the_callers_floor(ablation):
    workload, fleet, _ = small_problem(seed=2, n=15, m=3)
    cfg = OptimizerConfig(swarm_size=6, max_iterations=8, d_min=1e9)
    assert all(row.mutated for row in run(workload, fleet, cfg)[2].rows)
    assert not any(row.mutated for row in ablation(workload, fleet, cfg)[2].rows)


def test_hybrid_differs_from_both_ablations():
    workload, fleet, _ = small_problem(seed=19, n=30, m=4)
    cfg = OptimizerConfig(swarm_size=10, max_iterations=12, seed=6)
    _, _, hybrid_log = run(workload, fleet, cfg)
    _, _, pso_log = run_pure_pso(workload, fleet, cfg)
    _, _, gwo_log = run_pure_gwo(workload, fleet, cfg)
    hybrid_means = [row.mean_fitness for row in hybrid_log.rows]
    assert hybrid_means != [row.mean_fitness for row in pso_log.rows]
    assert hybrid_means != [row.mean_fitness for row in gwo_log.rows]


# each update rule's name, and the positions of the arguments its docstring
# says it overwrites
UPDATE_RULES = {
    "gwo_guidance": {1},  # offsets
    "velocity_update": {1},  # velocities
    "combined_update": {0, 1},  # position and gwo_position
}


def count_update_calls(monkeypatch):
    """Count each update rule's calls from step, checking that none writes into any other input."""
    calls = dict.fromkeys(UPDATE_RULES, 0)

    def counting(name, rule):
        def counted(*args):
            inputs = {
                i: arg.copy()
                for i, arg in enumerate(args)
                if isinstance(arg, np.ndarray) and i not in UPDATE_RULES[name]
            }
            result = rule(*args)
            for i, copy in inputs.items():
                npt.assert_array_equal(args[i], copy, err_msg=f"{name} wrote into input {i}")
            calls[name] += 1
            return result

        return counted

    for name in UPDATE_RULES:
        monkeypatch.setattr(optimizer, name, counting(name, getattr(optimizer, name)))
    return calls


@pytest.mark.parametrize(
    "runner, lambda_min, want",
    [
        # 1500 tasks move a swarm of 7 in 4 blocks per step, over 3 steps
        (run, 0.4, {"gwo_guidance": 12, "velocity_update": 12, "combined_update": 12}),
        # a hybrid blends at every step, even when lambda reaches exactly 0
        (run, 0.0, {"gwo_guidance": 12, "velocity_update": 12, "combined_update": 12}),
        (run_pure_pso, 0.4, {"gwo_guidance": 0, "velocity_update": 12, "combined_update": 0}),
        (run_pure_gwo, 0.4, {"gwo_guidance": 12, "velocity_update": 0, "combined_update": 0}),
    ],
)
def test_step_skips_the_update_terms_its_blend_weight_zeroes(monkeypatch, runner, lambda_min, want):
    calls = count_update_calls(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(1500, seed=3))
    cfg = OptimizerConfig(swarm_size=7, max_iterations=3, lambda_min=lambda_min, seed=3)
    runner(workload, standard_fleet(3), cfg)
    assert calls == want


# blend weights of the three kinds of step: hybrid, pure PSO and pure GWO
STEP_KINDS = {"hybrid": None, "pso": 0.0, "gwo": 1.0}


def kind_config(kind, **kwargs):
    config = OptimizerConfig(**kwargs)
    weight = STEP_KINDS[kind]
    return config if weight is None else ref.pin_pure(config, weight)


BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "philox": np.random.Philox,
    "mt19937": np.random.MT19937,
}


class CountingGenerator:
    """A Generator that counts its random calls."""

    def __init__(self, bit_generator):
        self._rng = np.random.Generator(bit_generator)
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# uniforms per task in a particle-step: A and C (6n) for the guidance, r1
# and r2 (2n) for the velocities
DRAWS_PER_TASK = {"hybrid": 8, "pso": 2, "gwo": 6}


# the default floor leaves a fresh swarm alone; a huge one forces the kicks
@pytest.mark.parametrize("d_min, mutates", [(None, False), (1e9, True)])
def test_one_step_at_5000_tasks_peaks_under_a_mebibyte(d_min, mutates):
    # a block is one row of 5000 coordinates, so the peak is the move's: one
    # row's 8n draws and (1, 3, n) leader offsets with their work arrays, which
    # are freed before the swarm is mapped and scored
    workload = generate_synthetic(SyntheticSpec(5000, seed=1))
    etc = build_etc(workload, standard_fleet(8))
    cfg = OptimizerConfig(swarm_size=20, max_iterations=2, d_min=d_min, seed=1).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    tracemalloc.start()
    try:
        step(state, etc, cfg, rng, log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.rows[-1].mutated == mutates
    assert peak < 2**20, peak


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS.values(), ids=BIT_GENERATORS.keys())
@pytest.mark.parametrize("kind", STEP_KINDS)
# 8x3 with a swarm of 20 is one block of 20 rows; 1500 tasks move a swarm
# of 7 in 4 blocks
@pytest.mark.parametrize("n, blocks", [(8, 1), (1500, 4)])
def test_step_fills_each_block_with_one_random_call(bit_generator, kind, n, blocks):
    workload, fleet = random_instance(np.random.default_rng(n), n=n, m=3)
    etc = build_etc(workload, fleet)
    swarm = 20 if n == 8 else 7
    cfg = kind_config(kind, swarm_size=swarm, max_iterations=3, d_min=0.0, seed=5).resolve(etc)
    rng = CountingGenerator(bit_generator(cfg.seed))
    state = initialize_swarm(etc, cfg, rng)
    twin = np.random.Generator(bit_generator(cfg.seed))
    twin.bit_generator.state = rng.bit_generator.state
    for t in range(1, cfg.max_iterations + 1):
        step(state, etc, cfg, rng, ConvergenceLog())
        assert rng.random_calls == t * blocks
        twin.random(swarm * DRAWS_PER_TASK[kind] * n)
        npt.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def count_mapped_rows(monkeypatch):
    """Count the positions the optimizer sends through map_with_loads."""
    mapped = [0]

    def counting(positions, etc, threshold):
        mapped[0] += np.atleast_2d(positions).shape[0]
        return map_with_loads(positions, etc, threshold)

    monkeypatch.setattr(optimizer, "map_with_loads", counting)
    return mapped


def test_run_draws_its_initial_swarm_from_one_generator(monkeypatch):
    initial = []

    def recording(*args, **kwargs):
        state = initialize_swarm(*args, **kwargs)
        initial.append(state.positions.copy())
        return state

    monkeypatch.setattr(optimizer, "initialize_swarm", recording)
    workload, fleet, etc = small_problem()
    cfg = OptimizerConfig(swarm_size=6, max_iterations=2, seed=13)
    run(workload, fleet, cfg)
    want = np.random.default_rng(cfg.seed).uniform(0.0, etc.m, (cfg.swarm_size, etc.n))
    npt.assert_array_equal(initial[0], want)


def test_run_computes_the_capacity_threshold_once(monkeypatch):
    calls = [0]

    def counting(etc, theta):
        calls[0] += 1
        return capacity_threshold(etc, theta)

    monkeypatch.setattr(optimizer, "capacity_threshold", counting)
    workload = generate_synthetic(SyntheticSpec(40, seed=3))
    run(workload, standard_fleet(4), OptimizerConfig(seed=3))
    assert calls[0] == 1


def test_run_maps_each_plan_once_when_the_decode_space_is_small(monkeypatch):
    # 3 ** 8 = 6561 plans: the fitness table scores each plan once, up front,
    # and every evaluation reads it, so the mapper sees one row, alpha's,
    # mapped at the end for the plan run returns
    mapped = count_mapped_rows(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(8, seed=3))
    cfg = OptimizerConfig(seed=3)
    run(workload, standard_fleet(3), cfg)
    assert mapped[0] == 1


def test_run_maps_every_row_above_the_table_bound(monkeypatch):
    # 2 ** 17 plans exceed the bound: every row of every evaluation is mapped,
    # and run maps alpha once more at the end for the plan it returns
    mapped = count_mapped_rows(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(17, seed=3))
    cfg = OptimizerConfig(swarm_size=6, max_iterations=10, seed=3)
    run(workload, standard_fleet(2), cfg)
    assert mapped[0] == cfg.swarm_size * (cfg.max_iterations + 1) + 1


@pytest.mark.parametrize(
    "n, m, plans", [(13, 2, 2**13), (8, 3, 3**8), (5000, 1, 1), (14, 2, None), (8, 4, None),
                    (17, 2, None), (800, 4, None), (5000, 8, None)]
)
def test_fitness_table_covers_the_decode_space_up_to_the_bound(n, m, plans):
    workload, fleet, etc = small_problem(n=n, m=m)
    cfg = OptimizerConfig(swarm_size=2, seed=1).resolve(etc)
    table = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed)).fitness_table
    if plans is None:
        assert table is None
    else:
        assert table.shape == (plans,)
        assert np.isfinite(table).all()


def test_fitness_table_holds_each_rows_fitness_at_its_plan_key():
    workload, fleet, etc = small_problem(seed=6, n=8, m=3)
    cfg = OptimizerConfig(swarm_size=7, max_iterations=5, seed=2).resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng)
    log = ConvergenceLog()
    threshold = capacity_threshold(etc, cfg.headroom_theta)
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
        for position in state.positions:
            plan = decode_position(position, etc.m, etc.arcs)
            key = int(np.dot(plan, 3 ** np.arange(etc.n)))
            assignment, _ = map_with_loads(position, etc, threshold)
            assert state.fitness_table[key] == evaluate_assignment(assignment, etc, cfg.beta).fitness
        alpha_plan, _ = map_with_loads(state.leaders[0], etc, threshold)
        assert evaluate_assignment(alpha_plan, etc, cfg.beta).fitness == state.leader_fitness[0]


def test_convergence_log_csv_round_trip():
    workload, fleet, _ = small_problem(seed=3, n=10, m=2)
    _, _, log = run(workload, fleet, OptimizerConfig(swarm_size=4, max_iterations=6, seed=9))
    buffer = io.StringIO()
    log.write_csv(buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert tuple(rows[0]) == ConvergenceLog.CSV_HEADER
    assert len(rows) == 1 + 6
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 7))
    assert all(r[6] in {"0", "1"} for r in rows[1:])
    parsed_best = [float(r[1]) for r in rows[1:]]
    npt.assert_allclose(parsed_best, log.best_fitness_series())
