"""Command-line interface: flags, config files, artifacts, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from swarmsched.cli import DEFAULTS, OUTPUT_DIR_ENV, main
from swarmsched.harness import ALGORITHMS, RAW_CSV_HEADER


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_raw_without_wall(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1 :] for row in rows]


# ------------------------------------------------------------- exit codes


def test_no_command_is_a_usage_error(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "schedule" in out and "bench" in out and "trace" in out


def test_version_exits_zero(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert "swarmsched" in out


def test_unknown_algorithm_is_a_usage_error(capsys):
    code, _, err = run_cli(["schedule", "--algo", "nosuch", "--tasks", "4"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_bench_unknown_algorithm_lists_valid_names(capsys, tmp_path):
    code, _, err = run_cli(
        ["bench", "--algos", "rr,bogus", "--tasks", "4", "--vms", "2",
         "--replicates", "1", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert "bogus" in err
    for name in ALGORITHMS:
        assert name in err


def test_nonpositive_limit_is_a_usage_error(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("task_id,cpu_request,duration_s\nj1,0.5,10\n", encoding="utf-8")
    code, _, err = run_cli(["trace", "--input", str(trace), "--limit", "0"], capsys)
    assert code == 2
    assert "limit" in err


def test_swarm_of_one_is_a_usage_error(capsys):
    code, _, err = run_cli(["schedule", "--algo", "hybrid", "--tasks", "4", "--swarm", "1"], capsys)
    assert code == 2
    assert "swarm_size" in err


def test_theta_below_one_is_a_usage_error(capsys):
    code, _, err = run_cli(["schedule", "--algo", "hybrid", "--tasks", "4", "--theta", "0.5"], capsys)
    assert code == 2
    assert "headroom_theta" in err


def test_zero_tasks_is_a_usage_error(capsys):
    code, _, err = run_cli(["schedule", "--algo", "rr", "--tasks", "0"], capsys)
    assert code == 2
    assert "tasks" in err


def test_zero_vms_is_a_usage_error(capsys):
    code, _, err = run_cli(["schedule", "--algo", "rr", "--tasks", "4", "--vms", "0"], capsys)
    assert code == 2
    assert "vms" in err


def test_config_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tasks": "800"}), encoding="utf-8")
    code, _, err = run_cli(["schedule", "--algo", "rr", "--config", str(config)], capsys)
    assert code == 2
    assert "tasks" in err and "'800'" in err


def test_nonpositive_scale_is_a_usage_error(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("task_id,cpu_request,duration_s\nj1,0.5,10\n", encoding="utf-8")
    code, _, err = run_cli(["trace", "--input", str(trace), "--scale", "0"], capsys)
    assert code == 2
    assert "scale" in err


def test_missing_trace_file_is_a_runtime_error(capsys):
    code, _, err = run_cli(["trace", "--input", "/nonexistent/t.csv"], capsys)
    assert code == 1
    assert "error" in err


def test_malformed_trace_row_reports_its_line(capsys, tmp_path):
    rows = "".join(f"j{i},0.5,{i + 1}\n" for i in range(15))
    body = "task_id,cpu_request,duration_s\n" + rows + "j15,0.5\n"
    trace = tmp_path / "bad.csv"
    trace.write_text(body, encoding="utf-8")
    code, _, err = run_cli(["trace", "--input", str(trace)], capsys)
    assert code == 1
    assert "row 17" in err


# --------------------------------------------------------------- schedule


def test_schedule_prints_metrics_json(capsys):
    code, out, _ = run_cli(
        ["schedule", "--algo", "rr", "--tasks", "10", "--vms", "2", "--seed", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "rr"
    assert payload["tasks"] == 10
    assert payload["vms"] == 2
    assert payload["seed"] == 5
    assert payload["makespan_s"] > 0
    assert set(payload) >= {"makespan_s", "throughput_tps", "cv", "boi", "fitness"}


def test_schedule_output_is_deterministic(capsys):
    args = ["schedule", "--algo", "hybrid", "--tasks", "12", "--vms", "3",
            "--seed", "7", "--swarm", "5", "--iterations", "5"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_schedule_writes_convergence_csv(capsys, tmp_path):
    out_csv = tmp_path / "conv.csv"
    code, _, _ = run_cli(
        ["schedule", "--algo", "hybrid", "--tasks", "10", "--vms", "2",
         "--swarm", "4", "--iterations", "6", "--convergence-csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("iteration,best_fitness")
    assert len(lines) == 1 + 6


def test_schedule_one_shot_convergence_csv_is_header_only(capsys, tmp_path):
    out_csv = tmp_path / "conv.csv"
    code, _, _ = run_cli(
        ["schedule", "--algo", "rr", "--tasks", "10", "--vms", "2",
         "--convergence-csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1


def test_schedule_trace_workload(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    rows = "".join(f"j{i},0.5,{i + 1}\n" for i in range(8))
    trace.write_text("task_id,cpu_request,duration_s\n" + rows, encoding="utf-8")
    code, out, _ = run_cli(
        ["schedule", "--algo", "minmin", "--trace", str(trace), "--vms", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["tasks"] == 8


# ------------------------------------------------------------ config files


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tasks": 12, "vms": 3}), encoding="utf-8")
    _, out, _ = run_cli(
        ["schedule", "--algo", "rr", "--config", str(config)], capsys
    )
    assert json.loads(out)["tasks"] == 12
    _, out, _ = run_cli(
        ["schedule", "--algo", "rr", "--config", str(config), "--tasks", "5"], capsys
    )
    assert json.loads(out)["tasks"] == 5


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"taskz": 12}), encoding="utf-8")
    code, _, err = run_cli(["schedule", "--algo", "rr", "--config", str(config)], capsys)
    assert code == 2
    assert "taskz" in err


def test_config_file_must_be_an_object(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2, 3]", encoding="utf-8")
    code, _, err = run_cli(["schedule", "--algo", "rr", "--config", str(config)], capsys)
    assert code == 2
    assert "JSON object" in err


# ------------------------------------------------------------------ bench


def bench_args(out_dir, extra=()):
    return [
        "bench", "--algos", "hybrid,rr", "--tasks", "10", "--vms", "2",
        "--replicates", "2", "--seed", "3", "--swarm", "4", "--iterations", "5",
        "--out", str(out_dir), *extra,
    ]


def test_bench_writes_all_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(bench_args(out_dir), capsys)
    assert code == 0
    assert (out_dir / "raw.csv").is_file()
    assert (out_dir / "aggregates.json").is_file()
    assert (out_dir / "ttests.json").is_file()
    assert (out_dir / "manifest.json").is_file()
    assert sorted(p.name for p in (out_dir / "convergence").iterdir()) == [
        "hybrid_rep000.csv",
        "hybrid_rep001.csv",
    ]
    assert "hybrid:" in out and "rr:" in out and str(out_dir) in out

    rows = read_raw_without_wall(out_dir / "raw.csv")
    assert len(rows) == 1 + 4
    with open(out_dir / "raw.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == RAW_CSV_HEADER

    aggregates = json.loads((out_dir / "aggregates.json").read_text(encoding="utf-8"))
    assert set(aggregates["schedulers"]) == {"hybrid", "rr"}
    ttests = json.loads((out_dir / "ttests.json").read_text(encoding="utf-8"))
    assert len(ttests["comparisons"]) == 3  # one pair, three metrics


def test_bench_manifest_captures_the_full_configuration(capsys, tmp_path):
    out_dir = tmp_path / "results"
    run_cli(bench_args(out_dir, extra=["--no-diversity-control"]), capsys)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tool"] == "swarmsched"
    assert manifest["command"] == "bench"
    assert manifest["root_seed"] == 3
    assert sorted(manifest["config"]) == sorted(DEFAULTS)
    assert manifest["config"]["algos"] == "hybrid,rr"
    assert manifest["config"]["replicates"] == 2
    assert manifest["config"]["diversity_control"] is False


def test_bench_manifest_replays_identically(capsys, tmp_path):
    first_dir = tmp_path / "first"
    run_cli(bench_args(first_dir), capsys)
    second_dir = tmp_path / "second"
    code, _, _ = run_cli(
        ["bench", "--config", str(first_dir / "manifest.json"), "--out", str(second_dir)],
        capsys,
    )
    assert code == 0
    assert read_raw_without_wall(first_dir / "raw.csv") == read_raw_without_wall(
        second_dir / "raw.csv"
    )
    first_conv = (first_dir / "convergence" / "hybrid_rep000.csv").read_bytes()
    second_conv = (second_dir / "convergence" / "hybrid_rep000.csv").read_bytes()
    assert first_conv == second_conv
    ttests_first = json.loads((first_dir / "ttests.json").read_text(encoding="utf-8"))
    ttests_second = json.loads((second_dir / "ttests.json").read_text(encoding="utf-8"))
    assert ttests_first == ttests_second


def test_bench_honors_output_dir_env_var(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    code, _, _ = run_cli(
        ["bench", "--algos", "rr,minmin", "--tasks", "8", "--vms", "2",
         "--replicates", "1", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert (env_dir / "raw.csv").is_file()


def test_bench_explicit_out_beats_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    chosen = tmp_path / "chosen"
    run_cli(bench_args(chosen), capsys)
    assert (chosen / "raw.csv").is_file()
    assert not (tmp_path / "ignored").exists()


# ------------------------------------------------------------------ trace


def test_trace_summary_and_export(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    rows = "".join(f"j{i},0.5,{i + 1}\n" for i in range(6))
    trace.write_text("task_id,cpu_request,duration_s\n" + rows, encoding="utf-8")
    exported = tmp_path / "exported.csv"
    code, out, _ = run_cli(
        ["trace", "--input", str(trace), "--export", str(exported)], capsys
    )
    assert code == 0
    assert "tasks: 6" in out
    assert "length_mi:" in out
    assert exported.is_file()

    # the exported file ingests to the same workload
    code, out2, _ = run_cli(["trace", "--input", str(exported)], capsys)
    assert code == 0
    assert out2.splitlines()[:2] == out.splitlines()[:2]
