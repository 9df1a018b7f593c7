"""Pinned outputs: small `bench` and `schedule` runs reproduce committed files.

For a synthetic and a trace workload on three identical VMs, and a
synthetic workload on three VMs of 500, 1000 and 3000 MIPS, one `bench`
over all seven schedulers and one `schedule --algo hybrid` must give the
files in
tests/data/pinned_outputs.json byte for byte: raw.csv and aggregates.json
without their wall times, ttests.json, every convergence CSV, and the
schedule JSON with its convergence CSV. A refactor must leave them
unchanged. A change that moves the RNG streams on purpose regenerates them
with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from swarmsched.cli import main

DATA = Path(__file__).parent / "data"
PINNED = DATA / "pinned_outputs.json"
TRACE = DATA / "pinned_trace.csv"

ALL_SCHEDULERS = "hybrid,pso,gwo,rr,minmin,minmin-hybrid,random"
COMMON = ["--seed", "11", "--swarm", "4", "--iterations", "5"]
SOURCES = {
    "synthetic": ["--vms", "3", "--tasks", "12"],
    "trace": ["--vms", "3", "--trace", str(TRACE), "--limit", "14"],
    "heterogeneous": ["--mips", "500,1000,3000", "--tasks", "12"],
}


def _run(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code == 0, f"swarmsched {' '.join(args)} exited {code}"
    return out.getvalue()


def _raw_without_wall(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    return "".join(",".join(row[:wall] + row[wall + 1 :]) + "\n" for row in rows)


def _aggregates_without_wall(path: Path) -> str:
    payload = json.loads(path.read_text(encoding="utf-8"))
    for entry in payload["schedulers"].values():
        del entry["wall_ms_mean"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def collect(source: str, work_dir: Path) -> dict[str, str]:
    """Every pinned file of one workload source, by name."""
    out = work_dir / source
    _run(["bench", "--algos", ALL_SCHEDULERS, "--replicates", "3", *COMMON,
          *SOURCES[source], "--out", str(out)])
    files = {
        "raw.csv": _raw_without_wall(out / "raw.csv"),
        "aggregates.json": _aggregates_without_wall(out / "aggregates.json"),
        "ttests.json": (out / "ttests.json").read_text(encoding="utf-8"),
    }
    for path in sorted((out / "convergence").iterdir()):
        files[f"convergence/{path.name}"] = path.read_text(encoding="utf-8")
    schedule_csv = work_dir / f"{source}-schedule.csv"
    files["schedule.json"] = _run(["schedule", "--algo", "hybrid", *COMMON, *SOURCES[source],
                                   "--convergence-csv", str(schedule_csv)])
    files["schedule_convergence.csv"] = schedule_csv.read_text(encoding="utf-8")
    return files


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_outputs_match_the_pinned_files(source, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[source]
    actual = collect(source, tmp_path)
    assert sorted(actual) == sorted(pinned)
    for name, text in pinned.items():
        assert actual[name] == text, f"{source}: {name} differs from the pinned file"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {source: collect(source, Path(tmp)) for source in sorted(SOURCES)}
    PINNED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}", file=sys.stderr)
