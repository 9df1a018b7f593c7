"""Reference schedulers: round-robin, seeded random, Min-Min, seeded hybrid."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from swarmsched.baselines import min_min, minmin_seeded_hybrid, round_robin, seeded_random
from swarmsched.domain import VmSpec, Workload, build_etc
from swarmsched.encoding import decode_position, encode_plan
from swarmsched.metrics import evaluate_assignment, load_vector
from swarmsched.optimizer import OptimizerConfig

from conftest import make_fleet, make_workload, random_instance


def test_round_robin_cycles_vms():
    workload = make_workload([100.0] * 5)
    fleet = make_fleet([1000.0, 1000.0])
    npt.assert_array_equal(round_robin(workload, fleet), [0, 1, 0, 1, 0])


def test_round_robin_rejects_empty_inputs():
    with pytest.raises(ValueError, match="no tasks"):
        round_robin(Workload(tasks=()), make_fleet([1000.0]))
    with pytest.raises(ValueError, match="no VMs"):
        round_robin(make_workload([100.0]), ())


@pytest.mark.parametrize("baseline", [
    round_robin,
    lambda workload, fleet: seeded_random(workload, fleet, seed=7),
    min_min,
    lambda workload, fleet: minmin_seeded_hybrid(workload, fleet, OptimizerConfig(seed=1)),
], ids=["round_robin", "seeded_random", "min_min", "minmin_seeded_hybrid"])
def test_baselines_reject_noncontiguous_vm_ids(baseline):
    fleet = (VmSpec(0, 1000.0), VmSpec(5, 1000.0))
    with pytest.raises(ValueError, match="contiguous"):
        baseline(make_workload([100.0] * 4), fleet)


def test_seeded_random_is_reproducible_and_in_range():
    workload = make_workload([100.0] * 50)
    fleet = make_fleet([1000.0] * 3)
    a = seeded_random(workload, fleet, seed=7)
    b = seeded_random(workload, fleet, seed=7)
    c = seeded_random(workload, fleet, seed=8)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 3


def test_min_min_homogeneous_hand_trace():
    # ETC column [3, 1, 2] on two equal VMs: shortest-first greedy gives
    # t1 -> vm0, t2 -> vm1, then t0 completes earlier on vm0 (1+3 < 2+3)
    workload = make_workload([3.0, 1.0, 2.0])
    fleet = make_fleet([1.0, 1.0])
    npt.assert_array_equal(min_min(workload, fleet), [0, 0, 1])


def test_min_min_prefers_globally_earliest_completion():
    rng = np.random.default_rng(0)
    workload, fleet = random_instance(rng, n=8, m=3)
    etc = build_etc(workload, fleet)
    assignment = min_min(workload, fleet)
    assert assignment.shape == (8,)
    assert assignment.min() >= 0 and assignment.max() < 3
    # the first task scheduled is the global argmin of the ETC table, so that
    # cell's VM must carry its task in the final plan
    table = etc.lengths_mi[:, None] / etc.mips
    i, j = np.unravel_index(np.argmin(table), table.shape)
    assert assignment[i] == j


def test_min_min_tie_breaks_toward_first_flat_cell():
    workload = make_workload([5.0, 5.0])
    fleet = make_fleet([1.0, 1.0])
    npt.assert_array_equal(min_min(workload, fleet), [0, 1])


def test_min_min_balances_two_equal_tasks():
    workload = make_workload([1.0, 1.0])
    fleet = make_fleet([1.0, 1.0])
    loads = load_vector(min_min(workload, fleet), build_etc(workload, fleet))
    npt.assert_allclose(loads, [1.0, 1.0])


def test_minmin_seed_position_decodes_back_to_plan():
    rng = np.random.default_rng(5)
    workload = make_workload(rng.uniform(100.0, 1000.0, 40))
    fleet = make_fleet(np.linspace(500.0, 3000.0, 4))
    etc = build_etc(workload, fleet)
    plan = min_min(workload, fleet)
    assert len(set(plan.tolist())) == 4  # every arc is seeded
    npt.assert_array_equal(decode_position(encode_plan(plan, etc.arcs), 4, etc.arcs), plan)


def test_minmin_seeded_hybrid_never_loses_to_its_seed():
    rng = np.random.default_rng(17)
    cases = [(*random_instance(rng, n=20, m=3), 4)]
    # Min-Min's plan of these three tasks breaches the capacity ceiling, so
    # the mapper reroutes the seeded particle and the swarm never scores it
    breaching = make_workload([400.0, 500.0, 600.0]), make_fleet(np.linspace(500.0, 3000.0, 4))
    cases += [(*breaching, seed) for seed in range(4)]
    for workload, fleet, seed in cases:
        etc = build_etc(workload, fleet)
        cfg = OptimizerConfig(swarm_size=6, max_iterations=10, seed=seed).resolve(etc)
        plan_fitness = evaluate_assignment(min_min(workload, fleet), etc, cfg.beta).fitness
        _, report, _ = minmin_seeded_hybrid(workload, fleet, cfg)
        assert report.fitness <= plan_fitness + 1e-12, seed


def test_minmin_seeded_hybrid_is_deterministic():
    rng = np.random.default_rng(2)
    workload, fleet = random_instance(rng, n=15, m=3)
    cfg = OptimizerConfig(swarm_size=5, max_iterations=8, seed=1)
    a1, r1, _ = minmin_seeded_hybrid(workload, fleet, cfg)
    a2, r2, _ = minmin_seeded_hybrid(workload, fleet, cfg)
    npt.assert_array_equal(a1, a2)
    assert r1 == r2
