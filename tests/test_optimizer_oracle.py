"""The matrix optimizer against the per-particle reference, bit for bit."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_optimizer as ref
from swarmsched import optimizer
from swarmsched.domain import build_etc
from swarmsched.encoding import capacity_threshold, map_with_loads
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
    # lambda_min = 0 makes the last step's blend exactly 0: that step skips
    # guidance and blend inside a hybrid run
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(swarm_size=7, max_iterations=3, lambda_min=0.0, seed=seed)
    log = assert_steps_match_reference(workload, fleet, config, None)
    assert log.rows[-1].blend_weight == 0.0
    assert_runs_equal(run(workload, fleet, config), ref.run(workload, fleet, config))


def test_oracle_multi_block_case_ends_in_a_partial_block():
    block = max(1, optimizer._BLOCK_COORDS // MULTI_BLOCK_N)
    assert 1 < block < 7 and 7 % block != 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.just(MULTI_BLOCK_N)),
    m=st.integers(1, 6),
    swarm=st.sampled_from([2, 3, 7, 20]),
    steps=st.integers(1, 4),
    seeds=st.integers(0, 3),
    variant=st.sampled_from(["hybrid", "pso", "gwo"]),
    forced_mutation=st.booleans(),
    edge_seed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=1, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=11)
@example(n=8, m=3, swarm=2, steps=4, seeds=0, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=1)
@example(n=8, m=3, swarm=3, steps=4, seeds=2, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=2)
# the ablations skip the term their blend weight zeroes, over several
# blocks and a partial last block
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=12)
@example(n=MULTI_BLOCK_N, m=3, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=13)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=3)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, edge_seed=False, seed=4)
# both sides of the fitness-table bound, m ** n <= 2 ** 16: the largest
# tabulated spaces (2 ** 16 and 4 ** 8 plans) and the smallest space above it
@example(n=16, m=2, swarm=20, steps=4, seeds=2, variant="hybrid",
         forced_mutation=True, edge_seed=False, seed=5)
@example(n=8, m=4, swarm=20, steps=4, seeds=0, variant="pso",
         forced_mutation=False, edge_seed=False, seed=6)
@example(n=17, m=2, swarm=20, steps=4, seeds=1, variant="hybrid",
         forced_mutation=False, edge_seed=False, seed=7)
# a seed on both ends of the decode period, 0.0 and the last float below m
@example(n=8, m=3, swarm=7, steps=3, seeds=2, variant="hybrid",
         forced_mutation=False, edge_seed=True, seed=8)
def test_matrix_swarm_matches_per_particle_reference(
    n, m, swarm, steps, seeds, variant, forced_mutation, edge_seed, seed
):
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(
        swarm_size=swarm,
        max_iterations=steps,
        seed=seed,
        d_min=1e9 if forced_mutation else None,
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
