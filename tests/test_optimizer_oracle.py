"""The matrix optimizer against the per-particle reference, bit for bit."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_mapper
import reference_optimizer as ref
from swarmsched import optimizer
from swarmsched.domain import EtcMatrix, build_etc
from swarmsched.encoding import capacity_threshold, encode_plan, map_with_loads
from swarmsched.metrics import default_beta, score_loads
from swarmsched.optimizer import (
    ConvergenceLog,
    OptimizerConfig,
    initialize_swarm,
    run,
    run_pure_gwo,
    run_pure_pso,
    step,
)

from conftest import random_instance

# n = 1500 moves a swarm of 7 in blocks of 2, 2, 2 and 1 rows
MULTI_BLOCK_N = 1500
VARIANT_WEIGHT = {"pso": 0.0, "gwo": 1.0}


def assert_states_equal(state, reference, etc, threshold):
    particles = reference.particles
    npt.assert_array_equal(state.positions, np.stack([p.position for p in particles]))
    # pure GWO never updates a velocity in either form, so both stay zero
    npt.assert_array_equal(state.velocities, np.stack([p.velocity for p in particles]))
    npt.assert_array_equal(
        state.personal_best_positions, np.stack([p.personal_best_position for p in particles])
    )
    assert state.personal_best_fitness.tolist() == [p.personal_best_fitness for p in particles]
    # alpha is the optimizer's only global best; the reference keeps its own
    npt.assert_array_equal(state.leaders[0], reference.global_best_position)
    # the optimizer keeps no plan, but alpha's mapped plan is the reference's
    npt.assert_array_equal(
        map_with_loads(state.leaders[0], etc, threshold)[0], reference.global_best_assignment
    )
    assert state.leader_fitness[0] == reference.global_best_fitness
    # the merged leader table is the reference's cascade, row by row
    npt.assert_array_equal(
        state.leaders, np.stack([reference.alpha, reference.beta_wolf, reference.delta])
    )
    assert state.leader_fitness.tolist() == [
        reference.alpha_fitness,
        reference.beta_fitness,
        reference.delta_fitness,
    ]
    assert state.iteration == reference.iteration


def assert_runs_equal(got, want):
    npt.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2].rows == want[2].rows


def assert_steps_match_reference(workload, fleet, config, seeded):
    """Step both forms through the run from one seed, comparing after every step."""
    etc = build_etc(workload, fleet)
    cfg = config.resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    ref_rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng, seeded)
    reference = ref.initialize_swarm(etc, cfg, ref_rng, seeded)
    threshold = capacity_threshold(etc, cfg.headroom_theta)
    assert_states_equal(state, reference, etc, threshold)
    log, ref_log = ConvergenceLog(), ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
        ref.step(reference, etc, cfg, ref_rng, ref_log)
        assert_states_equal(state, reference, etc, threshold)
    assert log.rows == ref_log.rows
    return log


@pytest.mark.parametrize("n, m, seed", [(MULTI_BLOCK_N, 4, 21), (8, 3, 22), (30, 4, 23)])
def test_hybrid_whose_blend_reaches_zero_matches_reference(n, m, seed):
    # lambda_min = 0 makes the last step's blend exactly 0: a hybrid still
    # draws and computes the guidance then, and blends it in at weight 0
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(swarm_size=7, max_iterations=3, lambda_min=0.0, seed=seed)
    log = assert_steps_match_reference(workload, fleet, config, None)
    assert log.rows[-1].blend_weight == 0.0
    assert_runs_equal(run(workload, fleet, config), ref.run(workload, fleet, config))


@pytest.mark.parametrize("n, m, seed", [(MULTI_BLOCK_N, 4, 24), (30, 4, 25)])
def test_hybrid_whose_blend_rounds_to_one_matches_reference(n, m, seed):
    # lambda_min one ulp below 1 rounds the early steps' blend to exactly 1,
    # yet the last step blends in the velocities those steps updated
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(
        swarm_size=7, max_iterations=4, lambda_max=1.0, lambda_min=np.nextafter(1.0, 0.0),
        d_min=0.0, seed=seed,
    )
    log = assert_steps_match_reference(workload, fleet, config, None)
    assert log.rows[0].blend_weight == 1.0 and log.rows[-1].blend_weight < 1.0
    assert_runs_equal(run(workload, fleet, config), ref.run(workload, fleet, config))


def test_oracle_multi_block_case_ends_in_a_partial_block():
    block = max(1, optimizer._BLOCK_COORDS // MULTI_BLOCK_N)
    assert 1 < block < 7 and 7 % block != 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.just(MULTI_BLOCK_N)),
    m=st.integers(1, 8),
    swarm=st.sampled_from([2, 3, 7, 20]),
    steps=st.integers(1, 4),
    seeds=st.integers(0, 3),
    variant=st.sampled_from(["hybrid", "pso", "gwo"]),
    forced_mutation=st.booleans(),
    edge_seed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    inertia=st.sampled_from([0.7, 1.2, 1.5]),
    v_max=st.sampled_from([None, 2.0]),
)
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=1, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=11,
         inertia=0.7, v_max=None)
# the scale benchmark's fleet size: a period of 8, which the wrap and fold
# multiply by its exact reciprocal, over several blocks and a partial last
# block, with the mutation's fold forced on, and in each ablation
@example(n=MULTI_BLOCK_N, m=8, swarm=7, steps=3, seeds=1, variant="hybrid",
         forced_mutation=True, edge_seed=True, seed=19,
         inertia=0.7, v_max=None)
@example(n=MULTI_BLOCK_N, m=8, swarm=7, steps=3, seeds=0, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=20,
         inertia=0.7, v_max=None)
@example(n=MULTI_BLOCK_N, m=8, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=21,
         inertia=0.7, v_max=None)
@example(n=MULTI_BLOCK_N, m=8, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=22,
         inertia=0.7, v_max=None)
@example(n=8, m=3, swarm=2, steps=4, seeds=0, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=1,
         inertia=0.7, v_max=None)
@example(n=8, m=3, swarm=3, steps=4, seeds=2, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=2,
         inertia=0.7, v_max=None)
# the ablations draw for and compute only the rule they weight, over
# several blocks and a partial last block, and in a single block
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=12,
         inertia=0.7, v_max=None)
@example(n=MULTI_BLOCK_N, m=3, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=13,
         inertia=0.7, v_max=None)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=3,
         inertia=0.7, v_max=None)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=4,
         inertia=0.7, v_max=None)
@example(n=8, m=3, swarm=20, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=14,
         inertia=0.7, v_max=None)
# both sides of the fitness-table bound, m ** n <= 2 ** 13: the largest
# tabulated space (2 ** 13 plans) and the smallest spaces above it
@example(n=13, m=2, swarm=20, steps=4, seeds=2, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=5,
         inertia=0.7, v_max=None)
@example(n=14, m=2, swarm=20, steps=4, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=6,
         inertia=0.7, v_max=None)
@example(n=17, m=2, swarm=20, steps=4, seeds=1, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=7,
         inertia=0.7, v_max=None)
# a seed on both ends of the decode period, 0.0 and the last float below m
@example(n=8, m=3, swarm=7, steps=3, seeds=2, variant="hybrid",
         forced_mutation=False, edge_seed=True, seed=8,
         inertia=0.7, v_max=None)
# the velocity clamp binds: inertia above 1 grows |v| past the default
# v_max of 10m within 25 steps at 8x3, and v_max 2.0 binds from the first
# steps, here over several blocks and a partial last block
@example(n=8, m=3, swarm=7, steps=25, seeds=0, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=15,
         inertia=1.2, v_max=None)
@example(n=8, m=3, swarm=20, steps=25, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=16,
         inertia=1.2, v_max=None)
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=1, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=17,
         inertia=1.5, v_max=2.0)
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=18,
         inertia=1.5, v_max=2.0)
def test_matrix_swarm_matches_per_particle_reference(
    n, m, swarm, steps, seeds, variant, forced_mutation, edge_seed, seed, inertia, v_max
):
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(
        swarm_size=swarm,
        max_iterations=steps,
        seed=seed,
        d_min=1e9 if forced_mutation else None,
        inertia=inertia,
        v_max=v_max,
    )
    if variant in VARIANT_WEIGHT:
        config = ref.pin_pure(config, VARIANT_WEIGHT[variant])
    seeded = list(rng.uniform(0.0, m, (min(seeds, swarm), n)))
    if edge_seed and seeded:
        seeded[0][::2] = 0.0
        seeded[0][1::2] = np.nextafter(m, 0.0)

    log = assert_steps_match_reference(workload, fleet, config, seeded)
    if variant != "hybrid":
        assert not any(row.mutated for row in log.rows)
    elif forced_mutation:
        assert all(row.mutated for row in log.rows)

    if variant == "hybrid":
        got = run(workload, fleet, config, seeded_positions=seeded)
    else:
        got = {"pso": run_pure_pso, "gwo": run_pure_gwo}[variant](workload, fleet, config)
        seeded = None
    assert_runs_equal(got, ref.run(workload, fleet, config, seeded_positions=seeded))


# every power-of-two period up to 2 ** 10, which the wrap and fold multiply
# by its exact reciprocal, and periods that they divide by
PERIODS = [2**k for k in range(11)] + [3, 5, 6, 12]


def period_edges(period):
    """Coordinates where a quotient one ulp off would tip rint or floor, and subnormals.

    The multiples of period / 2 (0, +-period / 2, +-period, ...) and the
    floats next to them, nextafter(period, 0) among them, both signs; a
    reciprocal of 3 gives a different wrap at 1.5000000000000002.
    """
    halves = np.arange(9) * (period / 2)
    subnormal = np.finfo(float).smallest_subnormal
    points = np.concatenate([
        halves,
        np.nextafter(halves, np.inf),
        np.nextafter(halves, -np.inf),
        [subnormal, 3 * subnormal, np.finfo(float).smallest_normal / 3],
    ])
    return np.concatenate([points, -points])


@pytest.mark.parametrize("period", PERIODS)
@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), max_size=40))
def test_wrap_and_fold_equal_their_division_forms(period, values):
    # the reference's plain forms divide by the period; the helpers must
    # give their every bit, -0.0 and subnormals too
    x = np.concatenate([period_edges(period), values])
    offset = x.copy()
    optimizer._wrap_offset(offset, period, np.empty_like(x))
    npt.assert_array_equal(offset.view(np.int64), ref._wrap(x, period).view(np.int64))
    folded = np.empty_like(x)
    optimizer._fold_position(x, period, folded)
    npt.assert_array_equal(folded.view(np.int64), ref._fold(x, period).view(np.int64))


def most_tabulated_tasks(m):
    """The most tasks whose decode space on m VMs fits the fitness table; 30 for one VM."""
    if m == 1:
        return 30
    n = 1
    while m ** (n + 1) <= optimizer._TABLE_PLANS:
        n += 1
    return n


# a fleet of 1 to 10 VMs, and a task count whose decode space fits the table
SHAPES = st.integers(1, 10).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, most_tabulated_tasks(m)))
)


@settings(max_examples=40, deadline=None)
@given(
    shape=SHAPES,
    speeds=st.sampled_from(["identical", "het", "tied"]),
    lengths=st.sampled_from(["random", "equal", "round"]),
    theta=st.floats(1.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# rows of 8 or more loads, which numpy sums pairwise: scored as columns of
# the VM-major loads, these tables would differ in 384, 729 and 100 plans
@example(shape=(8, 4), speeds="het", lengths="random", theta=1.2, seed=2)
@example(shape=(9, 4), speeds="het", lengths="random", theta=1.2, seed=9)
@example(shape=(10, 3), speeds="het", lengths="random", theta=1.2, seed=17)
# the largest tabulated spaces
@example(shape=(2, 13), speeds="het", lengths="random", theta=1.2, seed=3)
@example(shape=(3, 8), speeds="het", lengths="random", theta=1.2, seed=4)
# equal ETCs at theta = 1: the fallback ties, and is often the decoded VM
@example(shape=(3, 7), speeds="identical", lengths="equal", theta=1.0, seed=5)
# round lengths at theta = 1: some loads land exactly on the threshold and
# stay, which a breach test of >= would reroute in 216 plans
@example(shape=(3, 6), speeds="tied", lengths="round", theta=1.0, seed=4)
def test_fitness_table_equals_the_reference_mapper_on_every_plan(
    shape, speeds, lengths, theta, seed
):
    m, n = shape
    rng = np.random.default_rng(seed)
    mips = {
        "identical": np.full(m, 1000.0),
        "het": rng.uniform(500.0, 3000.0, m),
        "tied": rng.choice([600.0, 1100.0, 1900.0], m),
    }[speeds]
    lengths_mi = {
        "random": rng.uniform(100.0, 1000.0, n),
        "equal": np.full(n, 700.0),
        "round": rng.choice([200.0, 300.0, 500.0], n),
    }[lengths]
    etc = EtcMatrix(lengths_mi, mips)
    threshold = capacity_threshold(etc, theta)
    beta = default_beta(etc)
    table = optimizer._fitness_table(etc, threshold, beta)
    plans = np.arange(m**n)[:, np.newaxis] // m ** np.arange(n) % m
    loads = np.array(
        [reference_mapper.map_with_loads(encode_plan(plan, etc.arcs), etc, threshold)[1]
         for plan in plans]
    )
    # the mapper's loads are C-ordered rows, one per plan
    assert table.tolist() == score_loads(loads, beta)[3].tolist()
