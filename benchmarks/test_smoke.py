"""Smoke test of the benchmark itself, at minimal sizes.

    python -m pytest benchmarks/test_smoke.py -q

Checks that every run prints each metric it owes with a unit, that the last
line matches BENCHMARK.json, and that corrupted outputs are counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "tiny-8x3": {"replicates": 2, "swarm": 4, "iterations": 3, "quality_calls": 1},
    "paper-800x4": {"tasks": 40, "replicates": 2, "swarm": 4, "iterations": 3,
                    "quality_calls": 1},
    "scale-5000x8": {"tasks": 300, "replicates": 2, "swarm": 4, "iterations": 3,
                     "quality_calls": 1},
}
# Metrics printed only where they apply, beyond those BENCHMARK.json lists.
EVERY_RUN = {"failed_frac", "host_slowdown"}
EXPECTED_OTHER = {
    ("tiny-8x3", 0): EVERY_RUN | {"opt_hit_rate", "opt_run_samples", "opt_run_ms_p50",
                                  "cv_mean.hybrid", "makespan_over_lb.pso",
                                  "makespan_over_lb.gwo"},
    ("paper-800x4", 0): EVERY_RUN | {"opt_run_samples", "opt_run_ms_p50", "cv_mean.hybrid",
                                     "makespan_over_lb.pso", "makespan_over_lb.gwo",
                                     "makespan_over_lb.minmin", "makespan_over_lb.rr"},
    ("scale-5000x8", 0): EVERY_RUN | {"opt_run_samples", "opt_run_ms_p50", "cv_mean.hybrid",
                                      "makespan_over_lb.minmin",
                                      "makespan_over_lb.minmin-hybrid"},
    ("tiny-8x3", 1): EVERY_RUN | {"workload.generate_ms"},
    ("paper-800x4", 1): EVERY_RUN | {"workload.generate_ms", "baselines.min_min_ms",
                                     "harness.write_ms", "cli.overhead_ms"},
    ("scale-5000x8", 1): EVERY_RUN | {"workload.ingest_ms", "baselines.min_min_ms"},
}


def small(name: str):
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, spec=dataclasses.replace(workload.spec, **SMALL[name]))


def run_main(workload, trace: int, monkeypatch, capsys) -> tuple[int, dict, dict]:
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, rest = line.split(" = ", 1)
            value, unit = rest.split()[:2]
            printed[name] = (float(value), unit)
    return code, printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_a_unit(name, trace, monkeypatch, capsys):
    code, printed, last = run_main(small(name), trace, monkeypatch, capsys)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert {m: (v["unit"]) for m, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert all(v["value"] > 0 for m, v in last["metrics"].items() if m in run.END_TO_END)
    assert set(printed) == set(last["metrics"]) | EXPECTED_OTHER[(name, trace)]
    assert all(unit == run.UNITS[m] for m, (_, unit) in printed.items())


def test_corrupted_record_raises_failed_frac(monkeypatch, capsys):
    @dataclasses.dataclass(frozen=True)
    class Corrupted(workloads.Tiny):
        def call(self, prepared, k):
            outcome = super().call(prepared, k)
            first = dict(outcome.records[0], fitness=outcome.records[0]["fitness"] * 1.001)
            return dataclasses.replace(outcome, records=(first, *outcome.records[1:]))

    code, printed, last = run_main(Corrupted(small("tiny-8x3").spec), 0, monkeypatch, capsys)
    assert code == 1
    assert not last["correct"] and last["failed"] >= 1
    assert printed["failed_frac"][0] > 0


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    workload = small("tiny-8x3")
    prepared = workload.prepare(5, tmp_path_factory.mktemp("tiny"))
    result = workload.call(prepared, 0)
    assert checks.check(result) == {}
    return result


def _replace_record(outcome, index: int, **fields):
    records = list(outcome.records)
    records[index] = dict(records[index], **fields)
    return dataclasses.replace(outcome, records=tuple(records))


# corruption -> a phrase the failure reason must contain
CORRUPTIONS = {
    "throughput": (lambda o: _replace_record(
        o, 0, throughput_tps=o.records[0]["throughput_tps"] * 2), "n/makespan"),
    "fitness": (lambda o: _replace_record(o, 0, boi=o.records[0]["boi"] * 0.9), "beta(1-boi)"),
    "below optimum": (lambda o: _replace_record(
        o, 0, makespan_s=0.5 * o.oracle.optimum[o.records[0]["replicate"]]), "exhaustive optimum"),
    "missing row": (lambda o: dataclasses.replace(o, records=o.records[1:]), "rows"),
    "duplicate row": (lambda o: dataclasses.replace(
        o, records=(o.records[0], *o.records[1:-1], o.records[0])), "rows"),
    "rising log": (lambda o: dataclasses.replace(
        o, logs={**o.logs, ("hybrid", 0): [1.0, 2.0]}), "increases"),
    "missing log": (lambda o: dataclasses.replace(
        o, logs={k: v for k, v in o.logs.items() if k != ("pso", 1)}), "no convergence log"),
    "wrong p-value": (lambda o: dataclasses.replace(
        o, comparisons=tuple(dict(c, p_value=c["p_value"] * 0.5 + 0.01)
                             for c in o.comparisons)), "scipy gives"),
    "missing t-test": (lambda o: dataclasses.replace(o, comparisons=o.comparisons[1:]),
                       "no t-test"),
}


@pytest.mark.parametrize("corrupt, reason", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_each_check_catches_its_corruption(outcome, corrupt, reason):
    failures = checks.check(corrupt(outcome))
    assert any(reason in why for whys in failures.values() for why in whys), failures


def test_host_clock_scales_sections_to_the_nominal_speed(monkeypatch):
    import calibrate

    chunk = {"s": calibrate.NOMINAL_CHUNK_S}
    monkeypatch.setattr(calibrate, "reference_chunk", lambda: chunk["s"])
    clock = calibrate.HostClock()
    chunk["s"] = 2 * calibrate.NOMINAL_CHUNK_S  # the host halves its speed
    assert clock.scale(1.0) == pytest.approx(2 / 3)  # blocks before and after disagree
    assert clock.scale(1.0) == pytest.approx(1 / 2)
    assert clock.slowdown == pytest.approx(2.0 / (2 / 3 + 1 / 2))
