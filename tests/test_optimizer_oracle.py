"""The matrix optimizer against the per-particle reference, bit for bit."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_optimizer as ref
from swarmsched import optimizer
from swarmsched.domain import build_etc
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


def assert_states_equal(state, reference):
    particles = reference.particles
    npt.assert_array_equal(state.positions, np.stack([p.position for p in particles]))
    npt.assert_array_equal(state.velocities, np.stack([p.velocity for p in particles]))
    npt.assert_array_equal(
        state.personal_best_positions, np.stack([p.personal_best_position for p in particles])
    )
    assert state.personal_best_fitness.tolist() == [p.personal_best_fitness for p in particles]
    npt.assert_array_equal(state.global_best_position, reference.global_best_position)
    npt.assert_array_equal(state.global_best_assignment, reference.global_best_assignment)
    assert state.global_best_fitness == reference.global_best_fitness
    for leader, fit in (("alpha", "alpha"), ("beta_wolf", "beta"), ("delta", "delta")):
        npt.assert_array_equal(getattr(state, leader), getattr(reference, leader))
        assert getattr(state, f"{fit}_fitness") == getattr(reference, f"{fit}_fitness")
    assert state.iteration == reference.iteration


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
    blend_on_pso=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=MULTI_BLOCK_N, m=4, swarm=7, steps=3, seeds=1, variant="hybrid",
         forced_mutation=True, blend_on_pso=False, seed=11)
@example(n=8, m=3, swarm=2, steps=4, seeds=0, variant="hybrid",
         forced_mutation=False, blend_on_pso=False, seed=1)
@example(n=8, m=3, swarm=3, steps=4, seeds=2, variant="hybrid",
         forced_mutation=True, blend_on_pso=True, seed=2)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="pso",
         forced_mutation=False, blend_on_pso=False, seed=3)
@example(n=30, m=4, swarm=7, steps=3, seeds=0, variant="gwo",
         forced_mutation=False, blend_on_pso=True, seed=4)
def test_matrix_swarm_matches_per_particle_reference(
    n, m, swarm, steps, seeds, variant, forced_mutation, blend_on_pso, seed
):
    rng = np.random.default_rng(seed)
    workload, fleet = random_instance(rng, n=n, m=m)
    config = OptimizerConfig(
        swarm_size=swarm,
        max_iterations=steps,
        seed=seed,
        d_min=1e9 if forced_mutation else None,
        blend_weight_on_pso=blend_on_pso,
    )
    if variant in VARIANT_WEIGHT:
        config = ref.pin_pure(config, VARIANT_WEIGHT[variant])
    # some seeded rows lie outside the box and get clamped
    seeded = list(rng.uniform(-12.0 * m, 12.0 * m, (min(seeds, swarm), n)))

    etc = build_etc(workload, fleet)
    cfg = config.resolve(etc)
    rngs = ref.spawn_rngs(cfg.seed, swarm)
    ref_rngs = ref.spawn_rngs(cfg.seed, swarm)
    state = initialize_swarm(etc, cfg, rngs, seeded)
    reference = ref.initialize_swarm(etc, cfg, ref_rngs, seeded)
    assert_states_equal(state, reference)
    log, ref_log = ConvergenceLog(), ConvergenceLog()
    for _ in range(steps):
        step(state, etc, cfg, rngs, log)
        ref.step(reference, etc, cfg, ref_rngs, ref_log)
        assert_states_equal(state, reference)
    assert log.rows == ref_log.rows
    if forced_mutation and variant == "hybrid":
        assert all(row.mutated for row in log.rows)

    if variant == "hybrid":
        got = run(workload, fleet, config, seeded_positions=seeded)
    else:
        got = {"pso": run_pure_pso, "gwo": run_pure_gwo}[variant](workload, fleet, config)
        seeded = None
    want = ref.run(workload, fleet, config, seeded_positions=seeded)
    npt.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2].rows == want[2].rows
