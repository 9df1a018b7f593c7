"""Experiment harness: seeding, replication, aggregation, statistics, files."""

from __future__ import annotations

import io
import json
import math
import pickle
from dataclasses import asdict, fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats as scipy_stats

from swarmsched import harness
from swarmsched.domain import build_etc
from swarmsched.harness import (
    ALGORITHMS,
    AggregateResult,
    ExperimentPlan,
    RAW_CSV_HEADER,
    SyntheticSource,
    TTEST_METRICS,
    TraceSource,
    aggregates_payload,
    paired_t_test,
    run_experiment,
    run_scheduler,
    scheduler_seed,
    ttests_payload,
    workload_seed,
    write_aggregates_json,
    write_convergence_csvs,
    write_raw_csv,
    write_ttests_json,
)
from swarmsched.metrics import MetricsReport, evaluate_assignment
from swarmsched.optimizer import OptimizerConfig
from swarmsched.workload import SyntheticSpec, generate_synthetic, standard_fleet

from conftest import make_fleet, make_workload


FAST_CONFIG = OptimizerConfig(swarm_size=5, max_iterations=6)


def small_plan(schedulers=("hybrid", "rr", "minmin"), replicates=3, root_seed=12):
    return ExperimentPlan(
        workload_source=SyntheticSource(n=20, min_length_mi=100.0, max_length_mi=1000.0),
        fleet=standard_fleet(3),
        schedulers=tuple(schedulers),
        replicates=replicates,
        root_seed=root_seed,
        config=FAST_CONFIG,
    )


# ----------------------------------------------------------------- seeding


def test_seed_derivation_is_deterministic():
    assert scheduler_seed(0, "hybrid", 3) == scheduler_seed(0, "hybrid", 3)
    assert workload_seed(5, 2) == workload_seed(5, 2)


def test_scheduler_seeds_injective_over_cells():
    seeds = {
        scheduler_seed(0, name, rep) for name in ALGORITHMS for rep in range(50)
    }
    assert len(seeds) == len(ALGORITHMS) * 50


def test_scheduler_and_workload_streams_do_not_collide():
    scheduler_side = {scheduler_seed(0, name, rep) for name in ALGORITHMS for rep in range(50)}
    workload_side = {workload_seed(0, rep) for rep in range(50)}
    assert not scheduler_side & workload_side


def test_root_seed_shifts_everything():
    assert scheduler_seed(0, "pso", 0) != scheduler_seed(1, "pso", 0)
    assert workload_seed(0, 0) != workload_seed(1, 0)


# ----------------------------------------------------------- run_scheduler


def test_run_scheduler_rejects_unknown_name():
    workload = make_workload([100.0, 200.0])
    with pytest.raises(ValueError, match="unknown scheduler"):
        run_scheduler("nosuch", workload, standard_fleet(2), FAST_CONFIG)


def test_run_scheduler_one_shot_schedulers_have_no_log():
    workload = make_workload([100.0, 200.0, 300.0, 400.0])
    fleet = standard_fleet(2)
    for name in ("rr", "minmin", "random"):
        assignment, report, log = run_scheduler(name, workload, fleet, FAST_CONFIG)
        assert log is None
        etc = build_etc(workload, fleet)
        expected = evaluate_assignment(assignment, etc, FAST_CONFIG.resolve(etc).beta)
        assert report == expected


def test_run_scheduler_population_schedulers_log_every_iteration():
    workload = make_workload(np.linspace(100, 900, 15))
    fleet = standard_fleet(3)
    for name in ("hybrid", "pso", "gwo", "minmin-hybrid"):
        _, _, log = run_scheduler(name, workload, fleet, FAST_CONFIG)
        assert log is not None
        assert len(log.rows) == FAST_CONFIG.max_iterations


# ------------------------------------------------------------- experiment


def test_plan_validation():
    with pytest.raises(ValueError, match="replicates"):
        small_plan(replicates=0)
    with pytest.raises(ValueError, match="at least one scheduler"):
        small_plan(schedulers=())
    with pytest.raises(ValueError, match="unknown scheduler"):
        small_plan(schedulers=("hybrid", "nosuch"))
    with pytest.raises(ValueError, match="duplicate"):
        small_plan(schedulers=("rr", "rr"))
    with pytest.raises(ValueError, match="root_seed"):
        small_plan(root_seed=-1)


def test_run_experiment_produces_one_record_per_cell():
    plan = small_plan()
    result = run_experiment(plan)
    assert len(result.records) == 3 * 3
    cells = {(r.scheduler, r.replicate) for r in result.records}
    assert cells == {(s, r) for s in plan.schedulers for r in range(3)}
    for record in result.records:
        assert record.seed == scheduler_seed(plan.root_seed, record.scheduler, record.replicate)
        assert record.wall_ms >= 0.0


def test_run_experiment_is_deterministic_apart_from_wall_time():
    plan = small_plan()
    first = run_experiment(plan)
    second = run_experiment(plan)

    def stripped(records):
        return [
            (r.scheduler, r.replicate, r.seed, r.makespan_s, r.throughput_tps, r.cv, r.boi, r.fitness)
            for r in records
        ]

    assert stripped(first.records) == stripped(second.records)
    assert first.convergence.keys() == second.convergence.keys()
    for key in first.convergence:
        assert first.convergence[key].rows == second.convergence[key].rows


def test_every_scheduler_sees_the_same_workload_per_replicate():
    plan = small_plan(schedulers=("rr", "minmin"), replicates=4)
    result = run_experiment(plan)
    # recompute each deterministic scheduler directly on the replicate workload
    for record in result.records:
        workload = generate_synthetic(
            SyntheticSpec(20, 100.0, 1000.0, workload_seed(plan.root_seed, record.replicate))
        )
        assignment, report, _ = run_scheduler(
            record.scheduler, workload, plan.fleet, FAST_CONFIG
        )
        assert record.makespan_s == pytest.approx(report.makespan_s)
        assert record.fitness == pytest.approx(report.fitness)


def test_replicates_draw_fresh_synthetic_workloads():
    plan = small_plan(schedulers=("rr",), replicates=3)
    result = run_experiment(plan)
    makespans = [r.makespan_s for r in result.records]
    assert len(set(makespans)) == 3


def test_trace_source_fixes_the_workload_across_replicates(tmp_path):
    path = tmp_path / "t.csv"
    rows = "".join(f"j{i},0.5,{2 + i}\n" for i in range(12))
    path.write_text("task_id,cpu_request,duration_s\n" + rows, encoding="utf-8")
    plan = ExperimentPlan(
        workload_source=TraceSource(str(path), limit=12),
        fleet=standard_fleet(2),
        schedulers=("rr",),
        replicates=3,
        root_seed=0,
        config=FAST_CONFIG,
    )
    result = run_experiment(plan)
    makespans = {r.makespan_s for r in result.records}
    assert len(makespans) == 1


def test_parallel_execution_matches_serial():
    plan = small_plan()
    serial = run_experiment(plan, jobs=1)
    parallel = run_experiment(plan, jobs=2)
    assert len(serial.records) == len(parallel.records)
    for a, b in zip(serial.records, parallel.records):
        assert replace(a, wall_ms=0.0) == replace(b, wall_ms=0.0)


def test_fewer_than_one_worker_is_rejected():
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        run_experiment(small_plan(), jobs=0)


def test_worker_count_is_capped_at_the_cell_count(monkeypatch):
    requested = []

    class SerialPool:
        """Records the worker count it is asked for and starts no process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    result = run_experiment(small_plan(("rr", "minmin"), replicates=1), jobs=1000)
    assert requested == [2]
    assert len(result.records) == 2


def test_record_and_aggregate_fields_derive_from_metrics_report():
    metrics = [field.name for field in fields(MetricsReport)]
    assert RAW_CSV_HEADER == ("scheduler", "replicate", "seed", *metrics, "wall_ms")
    aggregated = [name for name in metrics if name != "fitness"]
    assert [field.name for field in fields(AggregateResult)] == [*aggregated, "wall_ms_mean"]
    assert set(TTEST_METRICS) <= set(aggregated)


def test_records_and_aggregates_survive_pickling():
    # worker processes return records by pickle, so the built classes must
    # be found by name in their module
    result = run_experiment(small_plan(("rr",), replicates=1))
    record, aggregate = result.records[0], result.aggregates["rr"]
    assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(aggregate)) == aggregate


# ALGORITHMS order, and an order that is not, so the statistics must follow the plan
SCHEDULER_ORDERS = [("hybrid", "rr", "minmin"), ("minmin", "rr", "hybrid")]


@pytest.mark.parametrize("schedulers", SCHEDULER_ORDERS, ids="-".join)
def test_aggregates_hand_checked_stats(schedulers):
    # numpy over each scheduler's own records sees the same numbers in the
    # same order as the harness, so the statistics are equal bit for bit
    plan = small_plan(schedulers)
    result = run_experiment(plan)
    assert list(result.aggregates) == list(plan.schedulers)
    aggregated = [field.name for field in fields(MetricsReport) if field.name != "fitness"]
    for name in plan.schedulers:
        own = [r for r in result.records if r.scheduler == name]
        agg = result.aggregates[name]
        for metric in aggregated:
            values = np.array([getattr(r, metric) for r in own])
            stats = getattr(agg, metric)
            assert stats.mean == values.mean(), (name, metric)
            assert stats.std == values.std(ddof=0), (name, metric)
            assert stats.median == np.median(values), (name, metric)
        assert agg.wall_ms_mean == np.array([r.wall_ms for r in own]).mean()


def test_single_replicate_has_zero_spread_and_no_ttests():
    plan = small_plan(replicates=1)
    result = run_experiment(plan)
    assert result.comparisons == ()
    for agg in result.aggregates.values():
        assert agg.makespan_s.std == 0.0


def test_single_scheduler_has_no_comparisons():
    plan = small_plan(schedulers=("rr",))
    result = run_experiment(plan)
    assert result.comparisons == ()


def test_aggregates_do_not_depend_on_the_other_schedulers_in_the_plan():
    # the pinned synthetic case: a scheduler's aggregate is a fact about its
    # own runs, so dropping four schedulers from the plan must not move it
    def aggregates(schedulers):
        plan = ExperimentPlan(
            workload_source=SyntheticSource(n=12),
            fleet=standard_fleet(3),
            schedulers=schedulers,
            replicates=3,
            root_seed=11,
            config=OptimizerConfig(swarm_size=4, max_iterations=5),
        )
        result = run_experiment(plan)
        return {
            name: {key: value for key, value in asdict(agg).items() if key != "wall_ms_mean"}
            for name, agg in result.aggregates.items()
        }

    every = aggregates(ALGORITHMS)
    subset = aggregates(("hybrid", "pso", "gwo"))
    for name in ("hybrid", "pso", "gwo"):
        assert subset[name] == every[name], name


@pytest.mark.parametrize("schedulers", SCHEDULER_ORDERS, ids="-".join)
def test_comparisons_cover_all_pairs_and_metrics(schedulers):
    plan = small_plan(schedulers)
    result = run_experiment(plan)
    expected = [
        (metric, a, b)
        for metric in TTEST_METRICS
        for i, a in enumerate(plan.schedulers)
        for b in plan.schedulers[i + 1 :]
    ]
    assert [(c.metric, c.a, c.b) for c in result.comparisons] == expected
    for c in result.comparisons:
        values_a = np.array([getattr(r, c.metric) for r in result.records if r.scheduler == c.a])
        values_b = np.array([getattr(r, c.metric) for r in result.records if r.scheduler == c.b])
        assert c.mean_diff == (values_a - values_b).mean()
        assert c.ttest == paired_t_test(values_a, values_b)


def test_convergence_logs_only_for_population_schedulers():
    plan = small_plan(schedulers=("hybrid", "rr"), replicates=2)
    result = run_experiment(plan)
    assert set(result.convergence) == {("hybrid", 0), ("hybrid", 1)}


# ------------------------------------------------------------ paired t-test


def test_paired_t_test_matches_reference_implementation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.normal(10.0, 2.0, 12)
        b = a + rng.normal(0.3, 1.0, 12)
        ours = paired_t_test(a, b)
        reference = scipy_stats.ttest_rel(a, b)
        assert ours.t_statistic == pytest.approx(reference.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(reference.pvalue, abs=1e-9)
        assert ours.degrees_of_freedom == 11


def test_paired_t_test_antisymmetric():
    rng = np.random.default_rng(8)
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    ab = paired_t_test(a, b)
    ba = paired_t_test(b, a)
    assert ab.t_statistic == pytest.approx(-ba.t_statistic)
    assert ab.p_value == pytest.approx(ba.p_value)


def test_paired_t_test_degenerate_identical_samples():
    result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t_statistic == 0.0
    assert result.p_value == 1.0


def test_paired_t_test_degenerate_constant_offset():
    result = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert result.t_statistic == math.inf
    assert result.p_value == 0.0
    negated = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert negated.t_statistic == -math.inf


def test_paired_t_test_validation():
    with pytest.raises(ValueError, match="equal-length"):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        paired_t_test([1.0], [2.0])


def test_clearly_shifted_samples_have_a_small_p_value():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, 20)
    clearly_shifted = paired_t_test(a + 5.0, a + rng.normal(0, 0.1, 20))
    assert clearly_shifted.p_value < 0.05


# ------------------------------------------------------------ file formats


def test_write_raw_csv_layout():
    plan = small_plan(schedulers=("rr", "minmin"), replicates=2)
    result = run_experiment(plan)
    buffer = io.StringIO()
    write_raw_csv(result.records, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == ",".join(RAW_CSV_HEADER)
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "rr"
    assert first[1] == "0"
    assert float(first[3]) == result.records[0].makespan_s


def test_json_payloads_serialize_and_round_trip():
    plan = small_plan()
    result = run_experiment(plan)
    agg_buffer, ttest_buffer = io.StringIO(), io.StringIO()
    write_aggregates_json(result, agg_buffer)
    write_ttests_json(result, ttest_buffer)

    aggregates = json.loads(agg_buffer.getvalue())
    assert aggregates["replicates"] == 3
    assert aggregates["root_seed"] == 12
    assert set(aggregates["schedulers"]) == set(plan.schedulers)
    hybrid = aggregates["schedulers"]["hybrid"]
    assert hybrid["makespan_s"]["mean"] == pytest.approx(
        result.aggregates["hybrid"].makespan_s.mean
    )

    ttests = json.loads(ttest_buffer.getvalue())
    assert ttests["metrics"] == list(TTEST_METRICS)
    assert len(ttests["comparisons"]) == len(result.comparisons)


def test_ttest_payload_encodes_infinite_statistics_as_strings():
    # a scheduler pair with a constant metric offset yields t = +/-inf, which
    # strict JSON cannot carry as a number
    plan = small_plan(schedulers=("rr", "minmin"), replicates=2)
    result = run_experiment(plan)
    rigged = result.comparisons[0]
    values = [getattr(r, rigged.metric) for r in result.records if r.scheduler == rigged.a]
    shifted = paired_t_test(np.array(values) + 1.0, values)
    assert shifted.t_statistic == math.inf

    payload = ttests_payload(result)
    payload["comparisons"][0]["t_statistic"] = shifted.t_statistic
    with pytest.raises(ValueError):
        json.dumps(payload, allow_nan=False)

    from swarmsched.harness import _jsonable

    assert _jsonable(shifted.t_statistic) == "inf"
    assert _jsonable(-math.inf) == "-inf"
    assert _jsonable(1.5) == 1.5
    assert json.dumps(_jsonable(math.inf)) == '"inf"'


def _with_non_finite_fields(result):
    """The result with one nested t statistic at inf and one nested std at nan."""
    comparison = result.comparisons[0]
    rr = result.aggregates["rr"]
    return replace(
        result,
        comparisons=(replace(comparison, ttest=replace(comparison.ttest, t_statistic=math.inf)),
                     *result.comparisons[1:]),
        aggregates={**result.aggregates, "rr": replace(rr, makespan_s=replace(rr.makespan_s,
                                                                                 std=math.nan))},
    )


def test_writers_encode_nested_non_finite_values_as_strings():
    # the values sit inside the records an aggregate and a comparison nest
    rigged = _with_non_finite_fields(run_experiment(small_plan(("rr", "minmin"), replicates=2)))
    agg_buffer, ttest_buffer = io.StringIO(), io.StringIO()
    write_aggregates_json(rigged, agg_buffer)
    write_ttests_json(rigged, ttest_buffer)
    aggregates = json.loads(agg_buffer.getvalue())
    ttests = json.loads(ttest_buffer.getvalue())
    assert aggregates["schedulers"]["rr"]["makespan_s"]["std"] == "nan"
    assert ttests["comparisons"][0]["t_statistic"] == "inf"


def test_json_writers_refuse_non_finite_values_that_escape_encoding(monkeypatch):
    rigged = _with_non_finite_fields(run_experiment(small_plan(("rr", "minmin"), replicates=2)))
    monkeypatch.setattr(harness, "_jsonable", lambda value: value)
    for write in (write_aggregates_json, write_ttests_json):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(rigged, io.StringIO())


def test_write_convergence_csvs_names_and_contents(tmp_path):
    plan = small_plan(schedulers=("hybrid", "pso", "rr"), replicates=2)
    result = run_experiment(plan)
    written = write_convergence_csvs(result, tmp_path / "conv")
    names = sorted(p.name for p in written)
    assert names == [
        "hybrid_rep000.csv",
        "hybrid_rep001.csv",
        "pso_rep000.csv",
        "pso_rep001.csv",
    ]
    text = (tmp_path / "conv" / "hybrid_rep000.csv").read_text(encoding="utf-8")
    assert text.startswith("iteration,best_fitness")
    assert len(text.strip().splitlines()) == 1 + FAST_CONFIG.max_iterations
