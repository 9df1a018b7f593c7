"""The benchmark's three workloads, each driven through a public entry point.

A workload turns the run's seed into inputs (``prepare``, the set-up phase)
and then makes timed calls (``call``). Call k of a run is fully determined by
the seed and k. Every call returns an ``Outcome`` that checks.py can verify
and run.py can score. Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar
from time import perf_counter

import numpy as np

from swarmsched import cli, harness
from swarmsched.domain import Task, VmSpec, Workload
from swarmsched.optimizer import OptimizerConfig
from swarmsched.workload import SyntheticSpec, export_trace_csv, generate_synthetic

from checks import Oracle, Outcome, exhaustive_makespans

# Root seeds per run: calls cycle through this many distinct experiments.
POOL = 8


@dataclass(frozen=True)
class Prepared:
    """Set-up output: everything the timed calls and their checks need."""

    roots: tuple[int, ...]
    oracles: dict  # root seed -> Oracle
    scratch: Path
    trace: Path | None = None  # the exported trace CSV, for trace-driven workloads


@dataclass(frozen=True)
class Spec:
    """Sizes shared by the workloads; the smoke test shrinks them."""

    tasks: int
    mips: tuple[float, ...]
    schedulers: tuple[str, ...]
    replicates: int
    quality_calls: int  # calls whose records give the quality metrics
    swarm: int = 20
    iterations: int = 50

    @property
    def config(self) -> OptimizerConfig:
        return OptimizerConfig(swarm_size=self.swarm, max_iterations=self.iterations)

    @property
    def fleet(self) -> tuple[VmSpec, ...]:
        return tuple(VmSpec(j, mips) for j, mips in enumerate(self.mips))

    @property
    def cells(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, r) for s in self.schedulers for r in range(self.replicates))

    def warmup(self, tasks: int | None = None) -> "Spec":
        """A reduced copy for warm-up calls: the same code paths in little time."""
        return replace(self, tasks=tasks or self.tasks, replicates=2, swarm=4, iterations=2)

    def root_seeds(self, seed: int) -> tuple[int, ...]:
        state = np.random.SeedSequence([seed, self.tasks]).generate_state(POOL, dtype=np.uint32)
        return tuple(int(x) for x in state)

    def synthetic_lengths(self, root: int) -> tuple[np.ndarray, ...]:
        """The per-replicate workloads run_experiment draws for a root seed."""
        return tuple(
            generate_synthetic(SyntheticSpec(self.tasks, seed=harness.workload_seed(root, r)))
            .lengths_mi()
            for r in range(self.replicates)
        )


def _from_result(result, wall_s: float, spec: Spec, oracle: Oracle) -> Outcome:
    return Outcome(
        wall_s=wall_s,
        expected=spec.cells,
        records=tuple(
            {name: getattr(rec, name) for name in harness.RAW_CSV_HEADER}
            for rec in result.records
        ),
        logs={key: log.best_fitness_series() for key, log in result.convergence.items()},
        comparisons=tuple(
            {"metric": c.metric, "a": c.a, "b": c.b, "p_value": c.ttest.p_value}
            for c in result.comparisons
        ),
        oracle=oracle,
    )


def _timed_experiment(plan) -> tuple[object, float]:
    start = perf_counter()
    result = harness.run_experiment(plan)
    return result, perf_counter() - start


@dataclass(frozen=True)
class Tiny:
    """run_experiment over 8 synthetic tasks on 3 heterogeneous VMs."""

    spec: Spec = Spec(tasks=8, mips=(600.0, 1100.0, 1900.0), schedulers=("hybrid", "pso", "gwo"),
                      replicates=10, quality_calls=3)
    name: ClassVar[str] = "tiny-8x3"

    def _plan(self, root: int, spec: Spec) -> harness.ExperimentPlan:
        return harness.ExperimentPlan(
            harness.SyntheticSource(n=spec.tasks), spec.fleet, spec.schedulers,
            spec.replicates, root, spec.config,
        )

    def prepare(self, seed: int, scratch: Path) -> Prepared:
        spec = self.spec
        roots = spec.root_seeds(seed)
        mips = np.array(spec.mips)
        oracles = {}
        for root in roots:
            lengths = spec.synthetic_lengths(root)
            oracles[root] = Oracle(lengths, mips, exhaustive_makespans(lengths, mips))
        harness.run_experiment(self._plan(roots[0], spec.warmup()))
        return Prepared(roots, oracles, scratch)

    def call(self, prepared: Prepared, k: int) -> Outcome:
        root = prepared.roots[k % len(prepared.roots)]
        result, wall = _timed_experiment(self._plan(root, self.spec))
        return _from_result(result, wall, self.spec, prepared.oracles[root])


@dataclass(frozen=True)
class Paper:
    """The README's `swarmsched bench` command, driven through cli.main."""

    spec: Spec = Spec(tasks=800, mips=(1000.0,) * 4,
                      schedulers=("hybrid", "pso", "gwo", "minmin", "rr"),
                      replicates=3, quality_calls=2)
    name: ClassVar[str] = "paper-800x4"
    warmup_tasks: ClassVar[int] = 100

    def _argv(self, root: int, out: Path, spec: Spec) -> list[str]:
        return [
            "bench", "--algos", ",".join(spec.schedulers), "--tasks", str(spec.tasks),
            "--vms", str(len(spec.mips)), "--replicates", str(spec.replicates),
            "--swarm", str(spec.swarm), "--iterations", str(spec.iterations),
            "--seed", str(root), "--out", str(out),
        ]

    def _bench(self, argv: list[str]) -> float:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"swarmsched {' '.join(argv)} exited with {code}")
        return wall

    def prepare(self, seed: int, scratch: Path) -> Prepared:
        spec = self.spec
        roots = spec.root_seeds(seed)
        mips = np.array(spec.mips)
        oracles = {root: Oracle(spec.synthetic_lengths(root), mips) for root in roots}
        out = scratch / "warmup"
        self._bench(self._argv(roots[0], out, spec.warmup(min(spec.tasks, self.warmup_tasks))))
        shutil.rmtree(out)
        return Prepared(roots, oracles, scratch)

    def call(self, prepared: Prepared, k: int) -> Outcome:
        root = prepared.roots[k % len(prepared.roots)]
        out = prepared.scratch / f"bench-{k}"
        wall = self._bench(self._argv(root, out, self.spec))
        try:
            return Outcome(
                wall_s=wall,
                expected=self.spec.cells,
                records=tuple(_read_raw_csv(out / "raw.csv")),
                logs=_read_convergence(out / "convergence"),
                comparisons=tuple(json.loads((out / "ttests.json").read_text())["comparisons"]),
                oracle=prepared.oracles[root],
            )
        finally:
            shutil.rmtree(out)


@dataclass(frozen=True)
class Scale:
    """A heavy-tailed 5000-task trace, exported and read back through TraceSource."""

    spec: Spec = Spec(tasks=5000, mips=tuple(np.linspace(500.0, 3000.0, 8).tolist()),
                      schedulers=("hybrid", "minmin-hybrid", "minmin"),
                      replicates=2, quality_calls=1)
    name: ClassVar[str] = "scale-5000x8"
    median_mi: ClassVar[float] = 1000.0  # lognormal task lengths
    sigma: ClassVar[float] = 1.0
    warmup_tasks: ClassVar[int] = 500

    def _plan(self, path: Path, limit: int, root: int, spec: Spec) -> harness.ExperimentPlan:
        return harness.ExperimentPlan(
            harness.TraceSource(str(path), limit), spec.fleet, spec.schedulers,
            spec.replicates, root, spec.config,
        )

    def prepare(self, seed: int, scratch: Path) -> Prepared:
        spec = self.spec
        rng = np.random.default_rng([seed, spec.tasks])
        lengths = rng.lognormal(np.log(self.median_mi), self.sigma, spec.tasks)
        path = scratch / "scale-trace.csv"
        export_trace_csv(
            Workload(tuple(Task(i, float(x)) for i, x in enumerate(lengths))), path
        )
        roots = spec.root_seeds(seed)
        oracle = Oracle((lengths,) * spec.replicates, np.array(spec.mips))
        limit = min(spec.tasks, self.warmup_tasks)
        harness.run_experiment(self._plan(path, limit, roots[0], spec.warmup()))
        return Prepared(roots, {root: oracle for root in roots}, scratch, path)

    def call(self, prepared: Prepared, k: int) -> Outcome:
        root = prepared.roots[k % len(prepared.roots)]
        plan = self._plan(prepared.trace, self.spec.tasks, root, self.spec)
        result, wall = _timed_experiment(plan)
        return _from_result(result, wall, self.spec, prepared.oracles[root])


WORKLOADS = {w.name: w for w in (Tiny(), Paper(), Scale())}


def _read_raw_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ints = ("replicate", "seed")
    return [
        {k: (v if k == "scheduler" else int(v) if k in ints else float(v)) for k, v in row.items()}
        for row in rows
    ]


def _read_convergence(directory: Path) -> dict:
    logs = {}
    for path in sorted(directory.glob("*.csv")):
        scheduler, replicate = path.stem.rsplit("_rep", 1)
        with open(path, newline="", encoding="utf-8") as fh:
            logs[(scheduler, int(replicate))] = [
                float(row["best_fitness"]) for row in csv.DictReader(fh)
            ]
    return logs
