"""Swarm optimizer internals: schedules, update rules, mutation, full runs."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_optimizer as ref
from swarmsched import optimizer
from swarmsched.domain import build_etc
from swarmsched.encoding import capacity_threshold, decode_position, map_with_loads
from swarmsched.metrics import default_beta, evaluate_assignment
from swarmsched.workload import SyntheticSpec, generate_synthetic, standard_fleet
from swarmsched.optimizer import (
    DRAWS_PER_COORD,
    ConvergenceLog,
    OptimizerConfig,
    blend_weight,
    combined_update,
    gwo_coefficient_a,
    gwo_guidance,
    initialize_swarm,
    inject_mutation,
    mutation_sigma,
    run,
    run_pure_gwo,
    run_pure_pso,
    step,
    swarm_diversity,
    velocity_update,
)

from conftest import random_instance


def scripted_draws(n, a=0.0, c=0.0, r1=0.0, r2=0.0):
    """One particle's per-step uniform draws as a (1, 8n) block.

    The row holds A (3n), C (3n), r1 (n), r2 (n); each segment here is filled
    with one scripted value.
    """
    row = np.concatenate([np.full(3 * n, a), np.full(3 * n, c), np.full(n, r1), np.full(n, r2)])
    return row[np.newaxis]


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
    with pytest.raises(ValueError, match="mutation_sigma_scale"):
        OptimizerConfig(mutation_sigma_scale=0.0)
    with pytest.raises(ValueError, match="beta"):
        OptimizerConfig(beta=-1.0)
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=-1)


def test_resolve_fills_instance_scaled_defaults(tiny_workload, tiny_fleet):
    etc = build_etc(tiny_workload, tiny_fleet)  # n=2, m=2
    cfg = OptimizerConfig().resolve(etc)
    assert cfg.v_max == 20.0  # ten decode periods
    assert cfg.d_min == pytest.approx(0.05 * 2 * math.sqrt(2))
    assert cfg.mutation_sigma_scale == pytest.approx(0.2)
    assert cfg.beta == pytest.approx(default_beta(etc))


def test_resolve_keeps_explicit_values(tiny_workload, tiny_fleet):
    etc = build_etc(tiny_workload, tiny_fleet)
    cfg = OptimizerConfig(v_max=3.0, d_min=1.0, mutation_sigma_scale=0.7, beta=9.0)
    resolved = cfg.resolve(etc)
    assert (resolved.v_max, resolved.d_min) == (3.0, 1.0)
    assert (resolved.mutation_sigma_scale, resolved.beta) == (0.7, 9.0)


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
    out = velocity_update(
        np.zeros((1, 2)),
        np.zeros((1, 2)),
        np.full((1, 2), 2.0),
        np.full(2, 4.0),
        cfg,
        scripted_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[6.0, 6.0]])


def test_velocity_update_clamps_to_v_max():
    cfg = OptimizerConfig(inertia=1.0, c1=1.0, c2=1.0, v_max=5.0)
    out = velocity_update(
        np.zeros((1, 2)),
        np.zeros((1, 2)),
        np.full((1, 2), 2.0),
        np.full(2, 4.0),
        cfg,
        scripted_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[5.0, 5.0]])


def test_velocity_update_keeps_inertia_only_when_pulls_vanish():
    cfg = OptimizerConfig(inertia=0.7, c1=1.5, c2=1.5, v_max=10.0)
    positions = np.array([[1.0, -2.0]])
    out = velocity_update(
        positions,
        np.array([[2.0, 2.0]]),
        positions.copy(),
        positions[0].copy(),
        cfg,
        scripted_draws(2, r1=1.0, r2=1.0),
        PERIOD,
    )
    npt.assert_allclose(out, [[1.4, 1.4]])


# alpha, beta and delta of a one-coordinate pack, one leader per row
LEADERS = np.array([[4.0], [2.0], [0.0]])


def test_gwo_guidance_full_step_lands_on_origin():
    # a=1 with A draws of 1 gives A=1; C draws of 0.5 give C=1; X=0 so each
    # leader maps to 0
    out = gwo_guidance(
        np.array([[0.0]]),
        LEADERS,
        a=1.0,
        draws=scripted_draws(1, a=1.0, c=0.5),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[0.0]])


def test_gwo_guidance_zero_a_is_leader_centroid():
    out = gwo_guidance(
        np.array([[7.0]]),
        LEADERS,
        a=0.0,
        draws=scripted_draws(1, a=0.123, c=0.456),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[2.0]])


def test_gwo_guidance_fixed_point_at_converged_leaders():
    x = np.array([3.0, -1.0])
    out = gwo_guidance(
        x[np.newaxis],
        np.stack([x, x, x]),
        a=1.7,
        draws=scripted_draws(2, a=0.3, c=0.5),
        period=PERIOD,
    )
    npt.assert_allclose(out, [x])


def test_gwo_guidance_draw_order_is_a_then_c():
    # A particle's row of draws starts with the 3n A draws, then the 3n C
    # draws. A row of [1.0] * 3n + [0.0] * 3n gives A=a=1 and C=0, so each
    # guided point x + D - A * |C * D| is its own leader and the mean is
    # (4 + 2 + 0) / 3. The reversed layout (A=-1, C=2) would give
    # x + D + 2|D| over D = 3, 1, -1: 16/3.
    out = gwo_guidance(
        np.array([[1.0]]),
        LEADERS,
        a=1.0,
        draws=scripted_draws(1, a=1.0, c=0.0),
        period=PERIOD,
    )
    npt.assert_allclose(out, [[2.0]])
    # and a step's rows are drawn in stream order: A, C, r1, r2
    n = 5
    row = np.empty(DRAWS_PER_COORD * n)
    np.random.default_rng(4).random(out=row)
    rng = np.random.default_rng(4)
    parts = [rng.random((3, n)).ravel(), rng.random((3, n)).ravel(), rng.random(n), rng.random(n)]
    npt.assert_array_equal(row, np.concatenate(parts))


def test_gwo_guidance_consumes_exactly_two_draws():
    # Guidance reads exactly its two 3n-draw segments, A and C: the first 6n
    # columns of a particle's 8n. The velocity update reads only the last 2n.
    n = 3
    cfg = OptimizerConfig(v_max=10.0)
    positions = np.zeros((1, n))
    leaders = np.array([np.ones(n), np.full(n, 2.0), np.full(n, 3.0)])
    base = scripted_draws(n, a=0.3, c=0.3, r1=0.3, r2=0.3)

    def guide(draws):
        return gwo_guidance(positions, leaders, a=1.0, draws=draws, period=PERIOD)

    def velocity(draws):
        return velocity_update(
            positions, np.zeros((1, n)), np.ones((1, n)), np.full(n, 2.0), cfg, draws, PERIOD
        )

    for column in range(DRAWS_PER_COORD * n):
        moved = base.copy()
        moved[0, column] = 0.9
        assert (not np.array_equal(guide(moved), guide(base))) == (column < 6 * n), column
        assert (not np.array_equal(velocity(moved), velocity(base))) == (column >= 6 * n), column


def test_gwo_guidance_rejects_negative_a():
    with pytest.raises(ValueError, match="non-negative"):
        gwo_guidance(np.zeros((1, 1)), np.ones((3, 1)), -0.1, scripted_draws(1), PERIOD)


def test_combined_update_blends_and_boxes():
    out = combined_update(np.array([2.0]), np.array([4.0]), 0.5, np.array([0.0]), period=PERIOD)
    npt.assert_allclose(out, [3.0])
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
        draws = rng.random((1, DRAWS_PER_COORD * n))
        guide = gwo_guidance(position, np.stack(leaders), a, draws, m)
        proposals[f"guidance at a={a}"] = combined_update(position, guide, 1.0, np.zeros(n), m)
    config = OptimizerConfig(v_max=10.0 * m)
    draws = rng.random((1, DRAWS_PER_COORD * n))
    velocity = velocity_update(position, np.zeros((1, n)), pbest, gbest, config, draws, m)
    proposals["velocity"] = combined_update(position, np.zeros(n), 0.0, velocity, m)
    for label, proposal in proposals.items():
        shares = np.bincount(decode_position(proposal[0], m), minlength=m) / n
        npt.assert_allclose(shares, 0.25, atol=0.03, err_msg=label)


# ---------------------------------------------------- diversity and kicks


def test_swarm_diversity_hand_values():
    assert swarm_diversity([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)
    # collinear 0, 1, 2: pair distances 1, 2, 1
    assert swarm_diversity([[0.0], [1.0], [2.0]]) == pytest.approx(4.0 / 3.0)


def test_swarm_diversity_needs_two_particles():
    with pytest.raises(ValueError, match="at least two"):
        swarm_diversity([[1.0, 2.0]])


def test_mutation_sigma_grows_as_diversity_collapses():
    cfg = OptimizerConfig(mutation_sigma_scale=1.0, d_min=10.0)
    assert mutation_sigma(cfg, diversity=5.0, m=2) == pytest.approx(0.5)
    assert mutation_sigma(cfg, diversity=0.0, m=2) == pytest.approx(1.0)
    # above the floor the kick bottoms out at 0.01 * m
    assert mutation_sigma(cfg, diversity=20.0, m=2) == pytest.approx(0.02)


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
    seeds = [plan + 0.25, plan + 0.5, plan + 0.75]
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


UPDATE_RULES = ("gwo_guidance", "velocity_update", "combined_update")


def count_update_calls(monkeypatch):
    """Count each update rule's calls from step, checking that none writes into its inputs."""
    calls = dict.fromkeys(UPDATE_RULES, 0)

    def counting(name, rule):
        def counted(*args):
            arrays = [arg for arg in args if isinstance(arg, np.ndarray)]
            before = [array.copy() for array in arrays]
            result = rule(*args)
            for array, copy in zip(arrays, before):
                npt.assert_array_equal(array, copy, err_msg=f"{name} wrote into an input")
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
        # lambda reaches exactly 0 at the last step, which skips guidance and blend
        (run, 0.0, {"gwo_guidance": 8, "velocity_update": 12, "combined_update": 8}),
        (run_pure_pso, 0.4, {"gwo_guidance": 0, "velocity_update": 12, "combined_update": 0}),
        # velocities are swarm state, so pure GWO still updates them
        (run_pure_gwo, 0.4, {"gwo_guidance": 12, "velocity_update": 12, "combined_update": 0}),
    ],
)
def test_step_skips_the_update_terms_its_blend_weight_zeroes(monkeypatch, runner, lambda_min, want):
    calls = count_update_calls(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(1500, seed=3))
    cfg = OptimizerConfig(swarm_size=7, max_iterations=3, lambda_min=lambda_min, seed=3)
    runner(workload, standard_fleet(3), cfg)
    assert calls == want


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
    # 3 ** 8 = 6561 plans: a row whose plan was scored earlier in the run is
    # read from the fitness table, not mapped again
    mapped = count_mapped_rows(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(8, seed=3))
    cfg = OptimizerConfig(seed=3)
    run(workload, standard_fleet(3), cfg)
    assert 0 < mapped[0] < cfg.swarm_size * (cfg.max_iterations + 1)


def test_run_maps_every_row_above_the_table_bound(monkeypatch):
    # 2 ** 17 plans exceed the bound: every row of every evaluation is mapped,
    # and run maps alpha once more at the end for the plan it returns
    mapped = count_mapped_rows(monkeypatch)
    workload = generate_synthetic(SyntheticSpec(17, seed=3))
    cfg = OptimizerConfig(swarm_size=6, max_iterations=10, seed=3)
    run(workload, standard_fleet(2), cfg)
    assert mapped[0] == cfg.swarm_size * (cfg.max_iterations + 1) + 1


@pytest.mark.parametrize(
    "n, m, plans", [(16, 2, 2**16), (8, 4, 4**8), (8, 3, 3**8), (5000, 1, 1), (17, 2, None),
                    (800, 4, None), (5000, 8, None)]
)
def test_fitness_table_covers_the_decode_space_up_to_the_bound(n, m, plans):
    workload, fleet, etc = small_problem(n=n, m=m)
    cfg = OptimizerConfig(swarm_size=2, seed=1).resolve(etc)
    table = initialize_swarm(etc, cfg, np.random.default_rng(cfg.seed)).fitness_table
    if plans is None:
        assert table is None
    else:
        assert table.shape == (plans,)
        assert 1 <= np.count_nonzero(~np.isnan(table)) <= 2


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
            key = int(np.dot(decode_position(position, etc.m), 3 ** np.arange(etc.n)))
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
