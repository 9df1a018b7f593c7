"""Acceptance gate: ten end-to-end criteria, one visible scorecard line each.

Every test prints `criterion N [PASS|FAIL]: ...` on the real stdout so the
scorecard is readable in any pytest run. Criteria 2 and 4 assert the paper's
directional claims on the 800-task benchmark configuration exactly as stated:
the hybrid matches or beats both single-strategy ablations on makespan and on
load-balance CV. Criterion 10 asserts the same claims on a fleet of mixed
speeds, where the hybrid must also land near the makespan lower bound. See
the "Known results" section of the README for the measured numbers and for
the update-rule fault that once made them fail.
"""

from __future__ import annotations

import io
import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from swarmsched.domain import VmSpec, build_etc
from swarmsched.encoding import capacity_threshold, decode_position, map_with_loads
from swarmsched.harness import (
    ExperimentPlan,
    SyntheticSource,
    paired_t_test,
    replicate_workloads,
    run_experiment,
    workload_seed,
    write_raw_csv,
)
from swarmsched.baselines import min_min
from swarmsched.metrics import load_vector, score_loads
from swarmsched.optimizer import (
    OptimizerConfig,
    blend_weight,
    gwo_coefficient_a,
    run,
)
from swarmsched.workload import SyntheticSpec, generate_synthetic, standard_fleet

from conftest import random_instance

ROOT_SEED = 2026
BENCH_CONFIG = OptimizerConfig(swarm_size=20, max_iterations=50)


def report(capsys, number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number} [{status}]: {description}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def compare_on(fleet):
    """The 800-task comparison of the hybrid against both ablations on a fleet."""
    plan = ExperimentPlan(
        workload_source=SyntheticSource(n=800, min_length_mi=100.0, max_length_mi=1000.0),
        fleet=fleet,
        schedulers=("hybrid", "pso", "gwo"),
        replicates=30,
        root_seed=ROOT_SEED,
        config=BENCH_CONFIG,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def benchmark_result():
    """The 800-task reference comparison shared by criteria 2, 3 and 4."""
    return compare_on(standard_fleet(4))


def mean_diff_of(result, metric, a, b):
    for c in result.comparisons:
        if (c.metric, c.a, c.b) == (metric, a, b):
            return c.mean_diff
    raise AssertionError(f"no comparison for {(metric, a, b)}")


# --------------------------------------------------------------------------


def exhaustive_best_makespan(etc) -> float:
    """Minimum makespan over every assignment, by direct enumeration."""
    n, m = etc.n, etc.m
    codes = np.arange(m**n)
    digits = (codes[:, None] // (m ** np.arange(n))[None, :]) % m
    table = etc.lengths_mi[:, None] / etc.mips
    loads = np.zeros((codes.shape[0], m))
    for j in range(m):
        loads[:, j] = ((digits == j) * table[:, j][None, :]).sum(axis=1)
    return float(loads.max(axis=1).min())


def test_criterion_1_brute_force_oracle(capsys):
    passed = False
    detail = ""
    try:
        start = time.perf_counter()
        hit_rates = []
        for instance in range(20):
            rng = np.random.default_rng([101, instance])
            workload, fleet = random_instance(rng, n=8, m=3)
            etc = build_etc(workload, fleet)
            optimum = exhaustive_best_makespan(etc)
            hits = 0
            for rep in range(30):
                seed = int(
                    np.random.SeedSequence([101, instance, rep]).generate_state(
                        1, dtype=np.uint64
                    )[0]
                )
                _, run_report, _ = run(
                    workload, fleet, OptimizerConfig(swarm_size=20, max_iterations=50, seed=seed)
                )
                if run_report.makespan_s <= 1.05 * optimum + 1e-12:
                    hits += 1
            hit_rates.append(hits / 30)
        elapsed = time.perf_counter() - start
        worst = min(hit_rates)
        passed = worst >= 0.90 and elapsed < 120.0
        detail = f"worst per-instance hit rate {worst:.0%}, elapsed {elapsed:.1f}s"
        assert worst >= 0.90, f"hit rates per instance: {hit_rates}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
    finally:
        report(capsys, 1, "optimizer lands within 5% of exhaustive optimum", passed, detail)


def test_criterion_2_directional_makespan(benchmark_result, capsys):
    passed = False
    detail = ""
    try:
        med = {
            name: benchmark_result.aggregates[name].makespan_s.median
            for name in ("hybrid", "pso", "gwo")
        }
        diff_pso = mean_diff_of(benchmark_result, "makespan_s", "hybrid", "pso")
        diff_gwo = mean_diff_of(benchmark_result, "makespan_s", "hybrid", "gwo")
        passed = (
            med["hybrid"] <= med["pso"]
            and med["hybrid"] <= med["gwo"]
            and diff_pso <= 0
            and diff_gwo <= 0
        )
        detail = (
            f"median makespan hybrid {med['hybrid']:.4f} vs pso {med['pso']:.4f} "
            f"vs gwo {med['gwo']:.4f}; mean diff vs pso {diff_pso:+.4f}, vs gwo {diff_gwo:+.4f}"
        )
        assert passed, detail
    finally:
        report(capsys, 2, "hybrid matches or beats both single-strategy baselines on makespan", passed, detail)


def test_criterion_3_convergence_tail(benchmark_result, capsys):
    passed = False
    detail = ""
    try:
        tail = []
        for rep in range(30):
            series = benchmark_result.convergence[("hybrid", rep)].best_fitness_series()
            f45, f50 = series[44], series[49]
            tail.append((f45 - f50) / f45)
        median_tail = float(np.median(tail))
        passed = median_tail < 0.02
        detail = f"median relative improvement iterations 45 to 50: {median_tail:.5f}"
        assert passed, detail
    finally:
        report(capsys, 3, "best-fitness improvement after iteration 45 stays below 2%", passed, detail)


def test_criterion_4_load_balance(benchmark_result, capsys):
    passed = False
    detail = ""
    try:
        cv_mean = {
            name: benchmark_result.aggregates[name].cv.mean
            for name in ("hybrid", "pso", "gwo")
        }
        directional = cv_mean["hybrid"] <= cv_mean["pso"] and cv_mean["hybrid"] <= cv_mean["gwo"]

        workload = generate_synthetic(
            SyntheticSpec(800, 100.0, 1000.0, workload_seed(ROOT_SEED, 0))
        )
        etc = build_etc(workload, standard_fleet(4))
        threshold = capacity_threshold(etc, 1.2)
        rng = np.random.default_rng(404)
        mapped_cv, raw_cv = [], []
        for _ in range(1000):
            position = rng.uniform(0.0, 4.0, 800)
            _, loads = map_with_loads(position, etc, threshold)
            mapped_cv.append(score_loads(loads, 0.0)[1])
            raw = decode_position(position, 4)
            raw_cv.append(score_loads(load_vector(raw, etc), 0.0)[1])
        mapper_ok = float(np.mean(mapped_cv)) <= float(np.mean(raw_cv))

        passed = directional and mapper_ok
        detail = (
            f"mean CV hybrid {cv_mean['hybrid']:.5f} vs pso {cv_mean['pso']:.5f} "
            f"vs gwo {cv_mean['gwo']:.5f}; capacity mapping mean CV "
            f"{np.mean(mapped_cv):.5f} vs raw decode {np.mean(raw_cv):.5f}"
        )
        assert passed, detail
    finally:
        report(capsys, 4, "hybrid has lowest mean CV and capacity mapping never hurts balance", passed, detail)


def test_criterion_5_formula_exactness(capsys):
    passed = False
    try:
        cfg = OptimizerConfig(max_iterations=50)
        assert blend_weight(0, cfg) == 0.9
        assert blend_weight(50, cfg) == 0.4
        assert gwo_coefficient_a(0, cfg) == 2.0
        assert gwo_coefficient_a(50, cfg) == 0.0
        # score_loads gives (makespan, CV, BOI, fitness)
        assert score_loads(np.array([5.0, 5.0, 5.0, 5.0]), 0.0)[1:3] == (0.0, 1.0)
        assert score_loads(np.array([0.0, 2.0]), 0.0)[1:3] == (1.0, 0.5)
        passed = True
    finally:
        report(capsys, 5, "schedule and balance formulas exact at their endpoints", passed)


def test_criterion_6_elitism_over_seeds(capsys):
    passed = False
    detail = ""
    try:
        violations = 0
        for seed in range(100):
            rng = np.random.default_rng([606, seed])
            workload, fleet = random_instance(rng, n=40, m=4)
            _, _, log = run(
                workload, fleet, OptimizerConfig(swarm_size=12, max_iterations=25, seed=seed)
            )
            series = log.best_fitness_series()
            if any(later > earlier for earlier, later in zip(series, series[1:])):
                violations += 1
        passed = violations == 0
        detail = f"{violations} violations over 100 seeds"
        assert violations == 0, detail
    finally:
        report(capsys, 6, "global-best fitness never increases", passed, detail)


def masked_raw_csv(records) -> str:
    buffer = io.StringIO()
    write_raw_csv(records, buffer)
    lines = buffer.getvalue().splitlines()
    # wall-clock time is the only non-deterministic column, by design
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


def test_criterion_7_bit_identical_reruns(capsys):
    passed = False
    detail = ""
    try:
        plan = ExperimentPlan(
            workload_source=SyntheticSource(n=120, min_length_mi=100.0, max_length_mi=1000.0),
            fleet=standard_fleet(4),
            schedulers=("hybrid", "pso", "gwo", "rr"),
            replicates=3,
            root_seed=7,
            config=OptimizerConfig(swarm_size=8, max_iterations=15),
        )
        first = run_experiment(plan)
        second = run_experiment(plan)

        raw_identical = masked_raw_csv(first.records) == masked_raw_csv(second.records)

        conv_identical = first.convergence.keys() == second.convergence.keys()
        for key in first.convergence:
            buf_a, buf_b = io.StringIO(), io.StringIO()
            first.convergence[key].write_csv(buf_a)
            second.convergence[key].write_csv(buf_b)
            conv_identical = conv_identical and buf_a.getvalue() == buf_b.getvalue()

        passed = raw_identical and conv_identical
        detail = f"raw CSV identical: {raw_identical}, convergence logs identical: {conv_identical}"
        assert passed, detail
    finally:
        report(capsys, 7, "identical root seed reproduces bit-identical result files", passed, detail)


def test_criterion_8_t_test_against_reference(capsys):
    passed = False
    detail = ""
    try:
        rng = np.random.default_rng(88)
        pairs = [(rng.normal(50.0, 10.0, 12), rng.normal(50.0, 10.0, 12)) for _ in range(7)]
        base8 = np.linspace(1.0, 2.0, 8)
        pairs.append((base8, base8 + rng.normal(0.0, 0.01, 8)))
        flat = np.array([3.0, 4.0, 5.0, 6.0])
        pairs.append((flat, flat.copy()))  # sd = 0, zero mean difference
        pairs.append((flat + 2.5, flat))  # sd = 0, constant offset

        worst = 0.0
        degenerate_ok = True
        for a, b in pairs:
            ours = paired_t_test(a, b)
            diff = np.asarray(a) - np.asarray(b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = scipy_stats.ttest_rel(a, b)
            if diff.std(ddof=1) == 0:
                if diff.mean() == 0:
                    # the reference is undefined here (0/0 -> nan); ours takes
                    # the documented no-effect convention
                    degenerate_ok = degenerate_ok and math.isnan(reference.statistic)
                    degenerate_ok = degenerate_ok and ours.t_statistic == 0.0
                    degenerate_ok = degenerate_ok and ours.p_value == 1.0
                else:
                    degenerate_ok = degenerate_ok and ours.t_statistic == reference.statistic
                    degenerate_ok = degenerate_ok and ours.p_value == reference.pvalue
            else:
                worst = max(
                    worst,
                    abs(ours.t_statistic - reference.statistic),
                    abs(ours.p_value - reference.pvalue),
                )
        passed = worst <= 1e-6 and degenerate_ok
        detail = f"max |difference| vs reference {worst:.2e}; degenerate branches ok: {degenerate_ok}"
        assert passed, detail
    finally:
        report(capsys, 8, "paired t-test matches the reference implementation within 1e-6", passed, detail)


def greedy_min_min_oracle(etc_rows, m):
    """Second, independently written greedy: plain lists, quadratic scan."""
    n = len(etc_rows)
    ready = [0.0] * m
    plan = [0] * n
    unscheduled = list(range(n))
    while unscheduled:
        best_completion, best_task, best_vm = None, None, None
        for task in unscheduled:
            for vm in range(m):
                completion = ready[vm] + etc_rows[task][vm]
                if best_completion is None or completion < best_completion:
                    best_completion, best_task, best_vm = completion, task, vm
        plan[best_task] = best_vm
        ready[best_vm] += etc_rows[best_task][best_vm]
        unscheduled.remove(best_task)
    return plan


def test_criterion_9_min_min_against_independent_greedy(capsys):
    passed = False
    detail = ""
    try:
        mismatches = 0
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 5))
            workload, fleet = random_instance(rng, n=n, m=m)
            etc = build_etc(workload, fleet)
            fast = min_min(workload, fleet)
            oracle = greedy_min_min_oracle((etc.lengths_mi[:, None] / etc.mips).tolist(), m)
            if not np.array_equal(fast, np.asarray(oracle)):
                mismatches += 1
        passed = mismatches == 0
        detail = f"{mismatches} mismatches over 50 instances"
        assert mismatches == 0, detail
    finally:
        report(capsys, 9, "min-min equals an independently written greedy exactly", passed, detail)


# --------------------------------------------------------------------------

def test_criterion_10_directional_claims_on_a_heterogeneous_fleet(capsys):
    passed = False
    detail = ""
    try:
        fleet = tuple(VmSpec(j, float(speed)) for j, speed in enumerate(np.linspace(500, 3000, 4)))
        result = compare_on(fleet)
        names = ("hybrid", "pso", "gwo")
        med = {name: result.aggregates[name].makespan_s.median for name in names}
        cv_mean = {name: result.aggregates[name].cv.mean for name in names}
        diff_pso = mean_diff_of(result, "makespan_s", "hybrid", "pso")
        diff_gwo = mean_diff_of(result, "makespan_s", "hybrid", "gwo")
        # the bound: each replicate's total work split perfectly by speed
        plan = result.plan
        total_mips = sum(vm.mips for vm in fleet)
        bounds = [
            float(workload.lengths_mi().sum()) / total_mips
            for workload in replicate_workloads(plan.workload_source, plan.root_seed, plan.replicates)
        ]
        over_lb = float(np.median([
            record.makespan_s / bounds[record.replicate]
            for record in result.records if record.scheduler == "hybrid"
        ]))
        passed = (
            all(med["hybrid"] <= med[name] for name in ("pso", "gwo"))
            and diff_pso <= 0
            and diff_gwo <= 0
            and all(cv_mean["hybrid"] <= cv_mean[name] for name in ("pso", "gwo"))
            and over_lb < 1.05
        )
        detail = (
            f"median makespan hybrid {med['hybrid']:.4f} vs pso {med['pso']:.4f} "
            f"vs gwo {med['gwo']:.4f}; mean diff vs pso {diff_pso:+.4f}, vs gwo {diff_gwo:+.4f}; "
            f"mean CV hybrid {cv_mean['hybrid']:.5f} vs pso {cv_mean['pso']:.5f} "
            f"vs gwo {cv_mean['gwo']:.5f}; hybrid median makespan/LB {over_lb:.4f}"
        )
        assert passed, detail
    finally:
        report(
            capsys, 10,
            "on a mixed-speed fleet the hybrid matches or beats both ablations and nears the bound",
            passed, detail,
        )
