"""Span tracing of swarmsched's layers, installed from outside the package.

The tracer replaces, in each calling module's namespace, the names of the
functions that module calls into (for example ``optimizer.map_with_loads``,
which the optimizer calls into the encoding layer). Every wrapped call
records one span: name, start, end, parent span and the harness cell it ran
in. Counters that explain the spans (reroutes, personal-best improvements)
are taken at the same boundaries, inside spans of their own so that the
counting does not land in the caller's self time. Spans stay in memory, in
flat columns, until the run ends. A layer is the module that defines the
function, and its self time is what its spans last minus what their child
spans cover. Leaving the tracer's context puts every original function back.
"""

from __future__ import annotations

import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns
from types import ModuleType

import numpy as np

# Calling module -> the globals it calls through. run_experiment, run and
# build_etc appear under several callers because each caller looks the name
# up in its own namespace.
WRITERS = ("write_raw_csv", "write_aggregates_json", "write_ttests_json", "write_convergence_csvs")
WRAPS = {
    "cli": ("main", "cmd_bench", "run_experiment", *WRITERS),
    "harness": ("run_experiment", "run_scheduler", "run", "run_pure_pso", "run_pure_gwo",
                "minmin_seeded_hybrid", "min_min", "round_robin", "seeded_random", "build_etc",
                "evaluate_assignment", "generate_synthetic", "ingest_trace", "paired_t_test"),
    "optimizer": ("run", "build_etc", "initialize_swarm", "step", "evaluate_assignment",
                  "capacity_threshold", "map_with_loads", "gwo_guidance", "velocity_update",
                  "combined_update", "swarm_diversity", "inject_mutation"),
    "baselines": ("run", "min_min", "build_etc"),
}
LAYERS = ("optimizer", "encoding", "metrics", "baselines", "domain", "workload", "harness", "cli")
HOOK = "trace.count"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, modules: dict[str, ModuleType], decode_position) -> None:
        self._modules = modules
        self._decode = decode_position
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.cell = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._cell = -1
        self.cells = 0
        self.particle_steps = 0
        self.pbest_improvements = 0
        self.maps = 0
        self.mapped_tasks = 0
        self.rerouted = 0
        self.clean_maps = 0
        self.first_breach: list[float] = []
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._hook = self._name_index(HOOK)

    def __enter__(self) -> "Tracer":
        for caller, attrs in WRAPS.items():
            module = self._modules[caller]
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name: int) -> int:
        span = len(self.end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.cell.append(self._cell)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        index = self._name_index(name)
        before = {"optimizer.step": self._before_step}.get(name)
        after = {"optimizer.step": self._after_step,
                 "encoding.map_with_loads": self._after_map}.get(name)
        opens_cell = name == "harness.run_scheduler"
        tracer = self

        def traced(*args, **kwargs):
            if opens_cell:
                tracer._cell, tracer.cells = tracer.cells, tracer.cells + 1
            try:
                noted = None
                if before is not None:
                    hook = tracer._open(tracer._hook)
                    noted = before(args)
                    tracer._close(hook)
                span = tracer._open(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if after is not None:
                    hook = tracer._open(tracer._hook)
                    after(args, result, noted)
                    tracer._close(hook)
                return result
            finally:
                if opens_cell:
                    tracer._cell = -1

        return traced

    def _before_step(self, args):
        return [p.personal_best_fitness for p in args[0].particles]

    def _after_step(self, args, result, before) -> None:
        after = [p.personal_best_fitness for p in args[0].particles]
        self.particle_steps += len(after)
        self.pbest_improvements += sum(new < old for new, old in zip(after, before))

    def _after_map(self, args, result, _) -> None:
        raw = self._decode(args[0], args[1].m)
        moved = np.flatnonzero(result[0] != raw)
        self.maps += 1
        self.mapped_tasks += raw.size
        self.rerouted += moved.size
        if moved.size:
            self.first_breach.append(moved[0] / raw.size)
        else:
            self.clean_maps += 1

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "cell": np.frombuffer(self.cell, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Dump every span as flat columns plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self._columns())

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics: (those every workload has, those only some have)."""
        cols = self._columns()
        dur = (cols["end_ns"] - cols["start_ns"]) / 1e3  # us
        child = cols["parent"] >= 0
        covered = np.bincount(cols["parent"][child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(cols["name"], minlength=k).tolist()))
        total = dict(zip(self.names, np.bincount(cols["name"], weights=dur, minlength=k)))
        own_by_name = dict(zip(self.names, np.bincount(cols["name"], weights=own, minlength=k)))
        root_us = float(dur[~child].sum())
        layer_us = {layer: 0.0 for layer in LAYERS}
        for name, us in own_by_name.items():
            layer = name.split(".", 1)[0]
            if layer in layer_us:
                layer_us[layer] += us

        def mean_us(name: str) -> float:
            return total[name] / calls[name]

        runs = calls["optimizer.run"]
        experiments = calls["harness.run_experiment"]
        common = {
            "optimizer.guidance_us": mean_us("optimizer.gwo_guidance"),
            "optimizer.velocity_us": mean_us("optimizer.velocity_update"),
            "optimizer.combine_us": mean_us("optimizer.combined_update"),
            "optimizer.step_self_us": own_by_name["optimizer.step"] / self.particle_steps,
            "optimizer.diversity_us": mean_us("optimizer.swarm_diversity"),
            "optimizer.init_ms": mean_us("optimizer.initialize_swarm") / 1e3,
            "optimizer.mutations_per_run": calls.get("optimizer.inject_mutation", 0) / runs,
            "optimizer.pbest_improve_ratio": self.pbest_improvements / self.particle_steps,
            "encoding.map_us": mean_us("encoding.map_with_loads"),
            "encoding.map_ns_per_task":
                total["encoding.map_with_loads"] * 1e3 / self.mapped_tasks,
            "encoding.reroute_ratio": self.rerouted / self.mapped_tasks,
            # 1.0 when no map ever rerouted: the first breach lies past the end
            "encoding.first_breach_frac":
                statistics.median(self.first_breach) if self.first_breach else 1.0,
            "encoding.clean_map_ratio": self.clean_maps / self.maps,
            "metrics.evaluate_us": mean_us("metrics.evaluate_assignment"),
            "metrics.evaluate_calls": calls["metrics.evaluate_assignment"] / self.cells,
            "domain.build_etc_us": mean_us("domain.build_etc"),
            "harness.overhead_ms":
                (total["harness.run_experiment"] - total["harness.run_scheduler"])
                / experiments / 1e3,
            "harness.ttest_us": mean_us("harness.paired_t_test"),
        }
        for layer, us in layer_us.items():
            common[f"{layer}.self_share"] = us / root_us

        partial = {}
        if calls.get("baselines.min_min"):
            partial["baselines.min_min_ms"] = mean_us("baselines.min_min") / 1e3
        if calls.get("workload.generate_synthetic"):
            partial["workload.generate_ms"] = mean_us("workload.generate_synthetic") / 1e3
        if calls.get("workload.ingest_trace"):
            partial["workload.ingest_ms"] = mean_us("workload.ingest_trace") / 1e3
        if calls.get("cli.main"):
            writers = sum(total[f"harness.{w}"] for w in WRITERS)
            partial["harness.write_ms"] = writers / calls["cli.main"] / 1e3
            partial["cli.overhead_ms"] = layer_us["cli"] / calls["cli.main"] / 1e3
        return common, partial
