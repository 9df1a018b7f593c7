"""Command-line interface: flags, config files, artifacts, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import platform
import re

import numpy as np
import pytest
import scipy

from swarmsched import cli
from swarmsched.cli import DEFAULTS, OUTPUT_DIR_ENV, main
from swarmsched.harness import ALGORITHMS, RAW_CSV_HEADER
from swarmsched.optimizer import OptimizerConfig


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


@pytest.mark.parametrize("command", ["schedule", "bench", "trace"])
def test_help_states_the_defaults_that_settings_start_from(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    subparsers = cli.build_parser()._subparsers._group_actions[0]
    stated = {}
    for action in subparsers.choices[command]._actions:
        match = re.search(r"\(default ([^)]*)\)", action.help or "")
        if match:
            # argparse wraps the help text, so compare it with the text unwrapped
            assert match.group(0) in " ".join(out.split()), action.dest
            stated[action.dest] = match.group(1)
    assert stated, command
    for dest, text in stated.items():
        default = DEFAULTS[dest]
        assert (text if isinstance(default, str) else float(text)) == default, dest


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


def test_mips_with_vms_is_a_usage_error(capsys):
    code, _, err = run_cli(
        ["schedule", "--algo", "rr", "--tasks", "4", "--vms", "2", "--mips", "500,1000"], capsys
    )
    assert code == 2
    assert "--mips" in err and "--vms" in err


@pytest.mark.parametrize(
    "payload, flags",
    [({"mips": [500, 1000, 3000]}, ["--vms", "2"]), ({"vms": 3}, ["--mips", "500,1000"])],
)
def test_explicit_fleet_flag_beats_the_config_files_fleet(payload, flags, capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**payload, "tasks": 6}), encoding="utf-8")
    code, out, err = run_cli(["schedule", "--algo", "rr", "--config", str(config), *flags], capsys)
    assert (code, err) == (0, "")
    # the same run as with the flag alone: the config file's fleet is dropped
    _, alone, _ = run_cli(["schedule", "--algo", "rr", "--tasks", "6", *flags], capsys)
    assert out == alone


@pytest.mark.parametrize("mips", ["0,1000", "500,-1", "", ",", "fast,1000", "1000,inf", "nan"])
def test_bad_mips_is_a_usage_error(mips, capsys):
    code, _, err = run_cli(["schedule", "--algo", "rr", "--tasks", "4", "--mips", mips], capsys)
    assert code == 2
    assert "--mips" in err


@pytest.mark.parametrize("mips", [[], [500.0, 0.0], [500.0, True], ["500", "1000"]])
def test_bad_mips_list_in_config_is_a_usage_error(mips, capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tasks": 4, "mips": mips}), encoding="utf-8")
    code, _, err = run_cli(["schedule", "--algo", "rr", "--config", str(config)], capsys)
    assert code == 2
    assert "mips" in err


def test_config_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    # a JSON boolean is no number, though Python's bool is an int
    for key, value in (("tasks", "800"), ("tasks", True), ("inertia", False)):
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        code, _, err = run_cli(["schedule", "--algo", "rr", "--config", str(config)], capsys)
        assert code == 2, (key, value)
        assert key in err and repr(value) in err


@pytest.mark.parametrize("algos", ["", ",", " , ", "hybrid,hybrid", "rr,minmin,rr"])
def test_empty_or_repeating_algos_is_a_usage_error(algos, capsys, tmp_path):
    out_dir = tmp_path / "o"
    code, _, err = run_cli(
        ["bench", "--algos", algos, "--tasks", "4", "--vms", "2", "--replicates", "1",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 2
    assert "algos" in err
    assert not out_dir.exists()


def test_empty_algos_list_in_config_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"algos": [], "tasks": 4, "vms": 2}), encoding="utf-8")
    code, _, err = run_cli(["bench", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "algos" in err


def test_nonpositive_scale_is_a_usage_error(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("task_id,cpu_request,duration_s\nj1,0.5,10\n", encoding="utf-8")
    code, _, err = run_cli(["trace", "--input", str(trace), "--scale", "0"], capsys)
    assert code == 2
    assert "scale" in err


@pytest.mark.parametrize(
    "command, field",
    [
        (["schedule", "--algo", "rr", "--max-length", "inf"], "max_length_mi"),
        (["schedule", "--algo", "rr", "--min-length", "inf", "--max-length", "inf"],
         "min_length_mi"),
        (["bench", "--algos", "rr", "--replicates", "1", "--max-length", "inf"], "max_length_mi"),
        (["bench", "--algos", "rr", "--replicates", "1", "--trace", "t.csv", "--min-length", "nan"],
         "min_length_mi"),
        # the synthetic keys are checked under --trace too: the manifest records them
        (["bench", "--algos", "rr", "--replicates", "1", "--trace", "t.csv", "--min-length", "2000"],
         "min_length_mi"),
    ],
)
def test_infinite_length_is_a_usage_error(command, field, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a bench that ran would write here
    code, _, err = run_cli([*command, "--tasks", "4"], capsys)
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "command",
    [
        ["schedule", "--algo", "rr", "--trace"],
        ["bench", "--algos", "rr", "--replicates", "1", "--trace"],
        ["trace", "--input"],
    ],
)
def test_infinite_scale_is_a_usage_error(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a bench that ran would write here
    trace = tmp_path / "t.csv"
    trace.write_text("task_id,cpu_request,duration_s\nj1,0.5,10\n", encoding="utf-8")
    code, _, err = run_cli([*command, str(trace), "--scale", "inf"], capsys)
    assert code == 2
    assert "--scale" in err


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


def test_schedule_runs_on_the_fleet_mips_lists(capsys, tmp_path):
    # Min-Min sends the one task to the fastest VM
    code, out, _ = run_cli(
        ["schedule", "--algo", "minmin", "--tasks", "1", "--mips", "500, 3000,1000"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vms"] == 3
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tasks": 1, "mips": [500, 3000, 1000]}), encoding="utf-8")
    _, from_config, _ = run_cli(["schedule", "--algo", "minmin", "--config", str(config)], capsys)
    assert from_config == out
    _, identical, _ = run_cli(["schedule", "--algo", "minmin", "--tasks", "1", "--vms", "3"],
                              capsys)
    assert json.loads(identical)["makespan_s"] == pytest.approx(3 * payload["makespan_s"])


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


# Knobs that are gone, each with a value as files held it: d_min = 0
# switches mutation off, the blend weight always weights the guidance term,
# and the mutation kick's scale is always 0.1m (manifests held null).
DELETED_KNOBS = {
    "diversity_control": (False, "--no-diversity-control"),
    "blend_weight_on_pso": (True, "--blend-weight-on-pso"),
    "mutation_sigma_scale": (None, "--mutation-sigma-scale"),
}


@pytest.mark.parametrize("via", ["flag", "config", "manifest"])
@pytest.mark.parametrize("name", DELETED_KNOBS)
def test_deleted_optimizer_knob_is_a_usage_error(name, via, capsys, tmp_path):
    value, flag = DELETED_KNOBS[name]
    if via == "flag":
        args, named = [flag], flag
    else:
        payload = {name: value}
        if via == "manifest":  # as a manifest written before the knob went
            payload = {"tool": "swarmsched", "command": "bench", "config": payload}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        args, named = ["--config", str(config)], name
    code, out, err = run_cli(["schedule", "--algo", "rr", "--tasks", "4", *args], capsys)
    assert code == 2
    assert named in err
    assert out == ""


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
    run_cli(bench_args(out_dir, extra=["--d-min", "0"]), capsys)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tool"] == "swarmsched"
    assert manifest["command"] == "bench"
    assert manifest["root_seed"] == 3
    assert sorted(manifest["config"]) == sorted(DEFAULTS)
    assert manifest["config"]["algos"] == "hybrid,rr"
    assert manifest["config"]["replicates"] == 2
    assert manifest["config"]["d_min"] == 0.0
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def test_bench_into_an_existing_out_removes_the_earlier_convergence_csvs(capsys, tmp_path):
    out_dir = tmp_path / "results"
    run_cli(bench_args(out_dir, extra=["--replicates", "3"]), capsys)
    convergence = out_dir / "convergence"
    (convergence / "notes.csv").write_text("kept\n", encoding="utf-8")
    code, _, _ = run_cli(bench_args(out_dir, extra=["--algos", "pso,rr", "--replicates", "1"]),
                         capsys)
    assert code == 0
    assert sorted(p.name for p in convergence.iterdir()) == ["notes.csv", "pso_rep000.csv"]


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


def test_bench_manifest_of_a_mips_fleet_replays_identically(capsys, tmp_path):
    first_dir = tmp_path / "first"
    args = [
        "bench", "--algos", "hybrid,rr", "--tasks", "10", "--mips", "500,1000,3000",
        "--replicates", "2", "--seed", "3", "--swarm", "4", "--iterations", "5",
        "--out", str(first_dir),
    ]
    assert run_cli(args, capsys)[0] == 0
    manifest = json.loads((first_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["mips"] == [500.0, 1000.0, 3000.0]
    assert manifest["config"]["vms"] == 3
    second_dir = tmp_path / "second"
    code, _, _ = run_cli(
        ["bench", "--config", str(first_dir / "manifest.json"), "--out", str(second_dir)],
        capsys,
    )
    assert code == 0
    assert read_raw_without_wall(first_dir / "raw.csv") == read_raw_without_wall(
        second_dir / "raw.csv"
    )


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


# -------------------------------------------------------- optimizer knobs

# Each OptimizerConfig field but the seed: its flag, and a non-default value.
KNOBS = {
    "swarm_size": (["--swarm", "7"], 7),
    "max_iterations": (["--iterations", "9"], 9),
    "lambda_max": (["--lambda-max", "0.8"], 0.8),
    "lambda_min": (["--lambda-min", "0.3"], 0.3),
    "inertia": (["--inertia", "0.55"], 0.55),
    "c1": (["--c1", "1.25"], 1.25),
    "c2": (["--c2", "1.75"], 1.75),
    "v_max": (["--v-max", "3.5"], 3.5),
    "d_min": (["--d-min", "0.25"], 0.25),
    "beta": (["--beta", "2.5"], 2.5),
    "headroom_theta": (["--theta", "1.35"], 1.35),
}
FIELDS = [f.name for f in dataclasses.fields(OptimizerConfig) if f.name != "seed"]
FLOAT_FIELDS = [name for name in FIELDS if isinstance(KNOBS[name][1], float)]


class ConfigBuilt(Exception):
    """Stops a command once its OptimizerConfig has been built."""


def built_config(monkeypatch, command, args):
    seen = []

    def capture_schedule(name, workload, fleet, config):
        seen.append(config)
        raise ConfigBuilt

    def capture_bench(plan, jobs=1):
        seen.append(plan.config)
        raise ConfigBuilt

    monkeypatch.setattr(cli, "run_scheduler", capture_schedule)
    monkeypatch.setattr(cli, "run_experiment", capture_bench)
    head = ["schedule", "--algo", "hybrid"] if command == "schedule" else ["bench", "--algos", "hybrid,rr"]
    assert main([*head, "--tasks", "6", "--vms", "2", *args]) == 1  # stopped by the capture
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("command", ["schedule", "bench"])
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name", FIELDS)
def test_every_optimizer_knob_reaches_the_built_config(name, via, command, monkeypatch, tmp_path):
    flag_args, value = KNOBS[name]
    if via == "flag":
        args = flag_args
    else:
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({name: value}), encoding="utf-8")
        args = ["--config", str(config_file)]
    config = built_config(monkeypatch, command, args)
    assert dataclasses.replace(config, seed=0) == OptimizerConfig(**{name: value})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_optimizer_knob_is_a_usage_error(name, value, capsys):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        OptimizerConfig(**{name: float(value)})
    flag = KNOBS[name][0][0]
    code, out, err = run_cli(["schedule", "--algo", "hybrid", "--tasks", "4", flag, value], capsys)
    assert code == 2
    assert f"{name} must be finite" in err
    assert out == ""


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
