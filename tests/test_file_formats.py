"""README "File formats" states the layouts the writers produce."""

from __future__ import annotations

import io
import json
import re
from dataclasses import fields
from pathlib import Path

from swarmsched.harness import (
    RAW_CSV_HEADER,
    AggregateResult,
    ExperimentPlan,
    MetricStats,
    PairwiseComparison,
    SyntheticSource,
    TTestResult,
    run_experiment,
    write_aggregates_json,
    write_ttests_json,
)
from swarmsched.optimizer import ConvergenceLog, OptimizerConfig
from swarmsched.workload import standard_fleet

README = Path(__file__).resolve().parent.parent / "README.md"


def _file_format(name: str) -> str:
    """The README paragraph of the "File formats" section that opens with **name**."""
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    (paragraph,) = [p for p in section.split("\n\n") if p.startswith(f"**{name}")]
    return paragraph


def _stated_header(name: str) -> str:
    """The one comma-separated code span in a file's paragraph: its CSV header."""
    (header,) = [span for span in re.findall(r"`([^`]+)`", _file_format(name)) if "," in span]
    return header


def test_readme_states_the_raw_csv_header():
    assert _stated_header("raw.csv") == ",".join(RAW_CSV_HEADER)


def test_readme_states_the_convergence_csv_header():
    assert _stated_header("convergence/") == ",".join(ConvergenceLog.CSV_HEADER)


def test_aggregates_json_keys_are_the_aggregate_fields_the_readme_lists():
    plan = ExperimentPlan(SyntheticSource(n=6), standard_fleet(2), ("rr", "minmin"), replicates=1,
                          config=OptimizerConfig(swarm_size=2, max_iterations=1))
    buffer = io.StringIO()
    write_aggregates_json(run_experiment(plan), buffer)
    per_scheduler = json.loads(buffer.getvalue())["schedulers"]
    names = [field.name for field in fields(AggregateResult)]
    stats = [field.name for field in fields(MetricStats)]
    for entry in per_scheduler.values():
        assert set(entry) == set(names)
        for value in entry.values():
            if isinstance(value, dict):
                assert set(value) == set(stats)
    paragraph = _file_format("aggregates.json")
    for name in names + stats:
        assert f"`{name}`" in paragraph, name


def test_ttests_json_keys_are_the_comparison_fields_the_readme_lists():
    plan = ExperimentPlan(SyntheticSource(n=6), standard_fleet(2), ("rr", "minmin"), replicates=2,
                          config=OptimizerConfig(swarm_size=2, max_iterations=1))
    buffer = io.StringIO()
    write_ttests_json(run_experiment(plan), buffer)
    payload = json.loads(buffer.getvalue())
    top = ["metrics", "comparisons"]
    # each comparison is a PairwiseComparison with its TTestResult flattened in
    names = [field.name for field in fields(PairwiseComparison) if field.name != "ttest"]
    names += [field.name for field in fields(TTestResult)]
    assert set(payload) == set(top)
    assert payload["comparisons"]
    for entry in payload["comparisons"]:
        assert set(entry) == set(names)
    paragraph = _file_format("ttests.json")
    for name in top + names:
        assert f"`{name}`" in paragraph, name
