"""Hybrid swarm optimizer for task placement.

Each member of the population is simultaneously a PSO particle (inertia plus
personal/global attraction) and a grey-wolf follower (guided by the three best
solutions found so far). A blend weight decaying linearly across iterations
shifts influence from wolf-pack guidance toward velocity refinement. When the
swarm collapses below a diversity floor, a Gaussian mutation reinflates it.

Positions decode through floor(|x|) mod m, so the update rules treat every
coordinate as a point on a circle of circumference m (the decode period):
offsets toward an attractor take their shortest way round the circle, and
every new position folds back into [0, m). Plain differences, and an
encircling distance measured from the origin, would instead pull coordinates
toward the middle of the box and decodes toward the middle VMs.

The swarm lives in (S, n) matrices, one row per particle. A step moves it in
blocks of rows with one array expression per update rule, then decodes each
row and scores the whole swarm from its (S, m) loads matrix in one pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import IO, ClassVar, Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .domain import EtcMatrix, VmSpec, Workload, build_etc
from .encoding import (
    CapacityPolicy,
    capacity_threshold,
    clamp_position,
    map_with_loads,
    position_bound,
)
from .metrics import MetricsReport, default_beta, evaluate_assignment, score_loads

__all__ = [
    "OptimizerConfig",
    "Particle",
    "SwarmState",
    "IterationStats",
    "ConvergenceLog",
    "blend_weight",
    "gwo_coefficient_a",
    "velocity_update",
    "gwo_guidance",
    "combined_update",
    "swarm_diversity",
    "mutation_sigma",
    "inject_mutation",
    "initialize_swarm",
    "step",
    "run",
    "run_pure_pso",
    "run_pure_gwo",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for one optimizer run.

    v_max, d_min, mutation_sigma_scale and beta default to None and are filled
    in against a concrete problem by resolve(): their natural scales depend on
    the VM count m and task count n.

    The default v_max of 10m never binds. Every attractor offset is wrapped
    to at most m / 2, so for inertia w < 1 a velocity that starts at zero
    stays within (c1 + c2) * m / (2 * (1 - w)), which is 5m at the default
    coefficients. The clamp only acts when v_max is set below that bound.
    """

    swarm_size: int = 20
    max_iterations: int = 50
    lambda_max: float = 0.9
    lambda_min: float = 0.4
    inertia: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    v_max: float | None = None
    d_min: float | None = None
    mutation_sigma_scale: float | None = None
    beta: float | None = None
    headroom_theta: float = 1.2
    diversity_control: bool = True
    blend_weight_on_pso: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 <= self.lambda_min <= self.lambda_max <= 1:
            raise ValueError(
                f"need 0 <= lambda_min <= lambda_max <= 1, got "
                f"({self.lambda_min}, {self.lambda_max})"
            )
        if self.inertia < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("inertia, c1 and c2 must be non-negative")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if self.d_min is not None and self.d_min < 0:
            raise ValueError(f"d_min must be non-negative, got {self.d_min}")
        if self.mutation_sigma_scale is not None and not self.mutation_sigma_scale > 0:
            raise ValueError("mutation_sigma_scale must be positive")
        if self.beta is not None and self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not self.headroom_theta >= 1:
            raise ValueError(f"headroom_theta must be >= 1, got {self.headroom_theta}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def resolve(self, etc: EtcMatrix) -> "OptimizerConfig":
        """Materialize instance-dependent defaults for a concrete ETC matrix."""
        n, m = etc.n, etc.m
        return replace(
            self,
            v_max=self.v_max if self.v_max is not None else 0.5 * (2.0 * position_bound(m)),
            d_min=self.d_min if self.d_min is not None else 0.05 * m * math.sqrt(n),
            mutation_sigma_scale=(
                self.mutation_sigma_scale if self.mutation_sigma_scale is not None else 0.1 * m
            ),
            beta=self.beta if self.beta is not None else default_beta(etc),
        )


@dataclass(frozen=True)
class Particle:
    """One particle's row of the swarm matrices, copied out."""

    position: np.ndarray
    velocity: np.ndarray
    personal_best_position: np.ndarray
    personal_best_fitness: float


@dataclass
class SwarmState:
    """Mutable population state; one optimizer run owns exactly one.

    Row i of positions, velocities and personal_best_positions, each (S, n),
    and entry i of personal_best_fitness, (S,), belong to particle i.
    alpha, beta_wolf and delta are the three lowest-fitness positions
    evaluated so far, maintained by the classic cascade; alpha always
    coincides with the global best.
    """

    positions: np.ndarray
    velocities: np.ndarray
    personal_best_positions: np.ndarray
    personal_best_fitness: np.ndarray
    global_best_position: np.ndarray
    global_best_fitness: float
    global_best_assignment: np.ndarray
    alpha: np.ndarray
    beta_wolf: np.ndarray
    delta: np.ndarray
    alpha_fitness: float = math.inf
    beta_fitness: float = math.inf
    delta_fitness: float = math.inf
    iteration: int = 0

    @property
    def particles(self) -> list[Particle]:
        """Per-particle records copied from the matrices; editing them changes nothing."""
        return [
            Particle(position.copy(), velocity.copy(), best.copy(), fit)
            for position, velocity, best, fit in zip(
                self.positions,
                self.velocities,
                self.personal_best_positions,
                self.personal_best_fitness.tolist(),
            )
        ]


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    best_fitness: float
    mean_fitness: float
    diversity: float
    blend_weight: float
    gwo_a: float
    mutated: bool


@dataclass
class ConvergenceLog:
    """Per-iteration trace of one run; serializes to CSV."""

    rows: list[IterationStats] = field(default_factory=list)

    CSV_HEADER: ClassVar[tuple[str, ...]] = (
        "iteration",
        "best_fitness",
        "mean_fitness",
        "diversity",
        "lambda",
        "a",
        "mutated",
    )

    def best_fitness_series(self) -> list[float]:
        return [row.best_fitness for row in self.rows]

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.CSV_HEADER)
        for row in self.rows:
            writer.writerow(
                [
                    row.iteration,
                    row.best_fitness,
                    row.mean_fitness,
                    row.diversity,
                    row.blend_weight,
                    row.gwo_a,
                    int(row.mutated),
                ]
            )


def blend_weight(t: int, config: OptimizerConfig) -> float:
    """Weight on the wolf-guidance term, decaying linearly across iterations."""
    if not 0 <= t <= config.max_iterations:
        raise ValueError(f"iteration {t} outside [0, {config.max_iterations}]")
    return config.lambda_max - (config.lambda_max - config.lambda_min) * (
        t / config.max_iterations
    )


def gwo_coefficient_a(t: int, config: OptimizerConfig) -> float:
    """Wolf step-size coefficient, decaying linearly from 2 to 0."""
    if not 0 <= t <= config.max_iterations:
        raise ValueError(f"iteration {t} outside [0, {config.max_iterations}]")
    return 2.0 * (1.0 - t / config.max_iterations)


# Uniform draws per coordinate that one particle makes in one step. Its row
# of draws is laid out in stream order: the guidance coefficients A (3n,
# leader by leader), then C (3n), then the velocity pulls r1 (n) and r2 (n).
DRAWS_PER_COORD = 8

# Coordinates per array pass of a step. A block's largest temporaries are
# (k, 3, n) float64, 24 bytes per coordinate: 96 KiB here, under glibc
# malloc's default 128 KiB mmap threshold, so they are reused heap memory.
# Blocks of 2**14 coordinates had every such temporary mapped and faulted in
# afresh, about 34k minor page faults per run at 800x4 and 50k at 5000x8.
_BLOCK_COORDS = 2**12


def _wrap_offset(offset: np.ndarray, period: float) -> np.ndarray:
    """Reduce offsets modulo the period to their shortest form, |d| <= period / 2."""
    # cheaper than np.mod on floats
    return offset - period * np.rint(offset / period)


def _fold_position(position: np.ndarray, period: float) -> np.ndarray:
    """Fold coordinates into [0, period], the decode's fundamental interval.

    Rounding can land a tiny negative coordinate on period itself, which
    decodes like 0.
    """
    return position - period * np.floor(position / period)


def velocity_update(
    positions: np.ndarray,
    velocities: np.ndarray,
    personal_best_positions: np.ndarray,
    global_best: np.ndarray,
    config: OptimizerConfig,
    draws: np.ndarray,
    period: float,
) -> np.ndarray:
    """Inertia plus stochastic pulls toward personal and global bests, clamped.

    Rows are particles: positions, velocities and personal bests are (k, n),
    draws is (k, 8n) and the pulls r1, r2 are its last 2n columns. Each pull
    follows the attractor's offset wrapped modulo the decode period.
    """
    n = positions.shape[1]
    r1 = draws[:, 6 * n : 7 * n]
    r2 = draws[:, 7 * n :]
    velocity = (
        config.inertia * velocities
        + config.c1 * r1 * _wrap_offset(personal_best_positions - positions, period)
        + config.c2 * r2 * _wrap_offset(global_best - positions, period)
    )
    return np.clip(velocity, -config.v_max, config.v_max)


def gwo_guidance(
    positions: np.ndarray,
    alpha: np.ndarray,
    beta_wolf: np.ndarray,
    delta: np.ndarray,
    a: float,
    draws: np.ndarray,
    period: float,
) -> np.ndarray:
    """Mean of the three leader-guided points, fresh draws per leader and component.

    Rows are particles: positions is (k, n) and draws is (k, 8n), whose first
    3n columns give A and next 3n give C, leader by leader. With D the
    leader's offset from the position, wrapped modulo the decode period, each
    guided point is position + D - A * |C * D|: the encircling rule
    L - A * |C * L - X| measured from the position rather than from the
    origin, so that it does not depend on where the coordinate sits in the box.
    """
    if a < 0:
        raise ValueError(f"a must be non-negative, got {a}")
    k, n = positions.shape
    a_coef = 2.0 * a * draws[:, : 3 * n].reshape(k, 3, n) - a  # in [-a, a]
    c_coef = 2.0 * draws[:, 3 * n : 6 * n].reshape(k, 3, n)  # in [0, 2]
    leaders = np.stack([alpha, beta_wolf, delta])
    offset = _wrap_offset(leaders - positions[:, np.newaxis], period)
    # sum / 3 equals mean(axis=1) bit for bit without np.mean's Python overhead
    return positions + (offset - a_coef * np.abs(c_coef * offset)).sum(axis=1) / 3.0


def combined_update(
    position: np.ndarray,
    gwo_position: np.ndarray,
    blend: float,
    velocity: np.ndarray,
    period: float,
) -> np.ndarray:
    """blend * guidance + (1 - blend) * (position + velocity), folded into [0, period].

    Elementwise, so one call moves a single particle or a block of rows.
    """
    if not 0 <= blend <= 1:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    proposal = blend * gwo_position + (1.0 - blend) * (position + velocity)
    return _fold_position(proposal, period)


def swarm_diversity(positions: Sequence[Sequence[float]] | np.ndarray) -> float:
    """Mean Euclidean distance over all unordered pairs of particle positions."""
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("diversity undefined: need at least two particles")
    return float(pdist(points).mean())


def mutation_sigma(config: OptimizerConfig, diversity: float, m: int) -> float:
    """Kick strength grows as diversity falls below the floor; never below 0.01*m."""
    scale = config.mutation_sigma_scale * (1.0 - diversity / config.d_min)
    return max(scale, 0.01 * m)


def inject_mutation(
    positions: np.ndarray,
    sigma: float,
    rngs: Sequence[np.random.Generator],
    period: float,
) -> None:
    """Perturb every coordinate of every row of positions by N(0, sigma^2),
    then fold the result into [0, period], in place.

    Row i draws its kick from rngs[i]. Personal bests and velocities are
    left untouched; only positions move.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    # row by row: whole-swarm kicks and their temporaries raised peak memory
    # by about 3 MB at 5000 tasks, and mutation is too rare to gain from them
    for row, rng in zip(positions, rngs):
        row[:] = _fold_position(row + rng.normal(0.0, sigma, row.shape[0]), period)


def _cascade_leaders(state: SwarmState, position: np.ndarray, fit: float) -> None:
    # Classic top-three cascade over every evaluation ever made: pushing each
    # candidate through keeps exactly the three lowest fitnesses seen, with
    # fitness(alpha) <= fitness(beta_wolf) <= fitness(delta) at all times.
    if fit < state.alpha_fitness:
        state.delta, state.delta_fitness = state.beta_wolf, state.beta_fitness
        state.beta_wolf, state.beta_fitness = state.alpha, state.alpha_fitness
        state.alpha, state.alpha_fitness = position.copy(), fit
    elif fit < state.beta_fitness:
        state.delta, state.delta_fitness = state.beta_wolf, state.beta_fitness
        state.beta_wolf, state.beta_fitness = position.copy(), fit
    elif fit < state.delta_fitness:
        state.delta, state.delta_fitness = position.copy(), fit


def _evaluate_swarm(
    positions: np.ndarray, etc: EtcMatrix, threshold: float, beta: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Map each row to an assignment, then score all rows from their loads at once."""
    loads = np.empty((positions.shape[0], etc.m))
    assignments = []
    for position, row in zip(positions, loads):
        assignment, row[:] = map_with_loads(position, etc, threshold)
        assignments.append(assignment)
    return assignments, score_loads(loads, beta)[3]


def initialize_swarm(
    etc: EtcMatrix,
    config: OptimizerConfig,
    rngs: Sequence[np.random.Generator],
    seeded_positions: Sequence[np.ndarray] | None = None,
) -> SwarmState:
    """Uniform positions in [0, m) per coordinate, zero velocities, bests evaluated.

    `seeded_positions` occupy the first slots verbatim (after clamping); the
    rest of the swarm is drawn randomly, row i from rngs[i]. Config must
    already be resolved.
    """
    n, m = etc.n, etc.m
    seeded = [clamp_position(p, m) for p in (seeded_positions or [])]
    if len(seeded) > config.swarm_size:
        raise ValueError(
            f"{len(seeded)} seeded positions exceed swarm_size {config.swarm_size}"
        )
    threshold = capacity_threshold(etc, CapacityPolicy(config.headroom_theta))
    positions = np.empty((config.swarm_size, n))
    for i, row in enumerate(positions):
        row[:] = seeded[i] if i < len(seeded) else rngs[i].uniform(0.0, m, n)
    assignments, fit = _evaluate_swarm(positions, etc, threshold, config.beta)
    best = int(np.argmin(fit))
    state = SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        personal_best_positions=positions.copy(),
        personal_best_fitness=fit,
        global_best_position=positions[best].copy(),
        global_best_fitness=float(fit[best]),
        global_best_assignment=assignments[best],
        alpha=positions[best].copy(),
        beta_wolf=positions[best].copy(),
        delta=positions[best].copy(),
        iteration=0,
    )
    for position, value in zip(positions, fit.tolist()):
        _cascade_leaders(state, position, value)
    # packs of two start with delta mirroring beta_wolf
    if not math.isfinite(state.beta_fitness):
        state.beta_wolf, state.beta_fitness = state.alpha.copy(), state.alpha_fitness
    if not math.isfinite(state.delta_fitness):
        state.delta, state.delta_fitness = state.beta_wolf.copy(), state.beta_fitness
    return state


def step(
    state: SwarmState,
    etc: EtcMatrix,
    config: OptimizerConfig,
    rngs: Sequence[np.random.Generator],
    log: ConvergenceLog,
) -> SwarmState:
    """Advance one iteration: diversity check and mutation, then the swarm move.

    Synchronous scheme: leaders and the global best are frozen while every
    particle moves and is evaluated, then personal bests, the global best and
    the leader cascade absorb the new evaluations in particle order. The move
    runs over blocks of rows, one array expression per update rule; each
    particle still draws its own 8n uniforms per step from its own substream
    rngs[i], so the results do not depend on the block size.
    """
    t = state.iteration + 1
    m = etc.m
    positions = state.positions
    swarm, n = positions.shape
    threshold = capacity_threshold(etc, CapacityPolicy(config.headroom_theta))
    diversity = swarm_diversity(positions)
    mutated = False
    if config.diversity_control and diversity < config.d_min:
        inject_mutation(positions, mutation_sigma(config, diversity, m), rngs, m)
        mutated = True
    lam = blend_weight(t, config)
    a = gwo_coefficient_a(t, config)
    blend = (1.0 - lam) if config.blend_weight_on_pso else lam

    block = max(1, _BLOCK_COORDS // n)
    draws = np.empty((min(block, swarm), DRAWS_PER_COORD * n))
    for start in range(0, swarm, block):
        rows = slice(start, min(start + block, swarm))
        block_draws = draws[: rows.stop - start]
        for row, rng in zip(block_draws, rngs[rows]):
            rng.random(out=row)
        guide = gwo_guidance(
            positions[rows], state.alpha, state.beta_wolf, state.delta, a, block_draws, m
        )
        velocity = velocity_update(
            positions[rows],
            state.velocities[rows],
            state.personal_best_positions[rows],
            state.global_best_position,
            config,
            block_draws,
            m,
        )
        positions[rows] = combined_update(positions[rows], guide, blend, velocity, m)
        state.velocities[rows] = velocity

    assignments, fit = _evaluate_swarm(positions, etc, threshold, config.beta)
    improved = fit < state.personal_best_fitness
    state.personal_best_positions[improved] = positions[improved]
    state.personal_best_fitness[improved] = fit[improved]
    # the global best never exceeds a personal best, so absorbing particles one
    # by one would end on the first one at the lowest fitness, if it beats it
    best = int(np.argmin(fit))
    if fit[best] < state.global_best_fitness:
        state.global_best_fitness = float(fit[best])
        state.global_best_position = positions[best].copy()
        state.global_best_assignment = assignments[best]
    # delta only falls, so no particle at or above it now can enter the cascade
    for i in np.flatnonzero(fit < state.delta_fitness).tolist():
        _cascade_leaders(state, positions[i], float(fit[i]))
    # plain left-to-right float sum, as one particle at a time would accumulate it
    fitness_total = 0.0
    for value in fit.tolist():
        fitness_total += value
    state.iteration = t
    log.rows.append(
        IterationStats(
            iteration=t,
            best_fitness=state.global_best_fitness,
            mean_fitness=fitness_total / swarm,
            diversity=diversity,
            blend_weight=lam,
            gwo_a=a,
            mutated=mutated,
        )
    )
    return state


def run(
    workload: Workload,
    vms: Sequence[VmSpec],
    config: OptimizerConfig,
    *,
    seeded_positions: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Optimize a placement; returns (assignment, metrics, per-iteration log).

    One root seed drives the whole run, and every particle owns an
    independent substream. The swarm moves as blocks of matrix rows, but each
    row draws from its own particle's substream, so the result depends
    neither on the block size nor on how the rows are grouped.
    """
    etc = build_etc(workload, vms)
    cfg = config.resolve(etc)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.swarm_size)
    rngs = [np.random.default_rng(stream) for stream in streams]
    state = initialize_swarm(etc, cfg, rngs, seeded_positions)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rngs, log)
    report = evaluate_assignment(state.global_best_assignment, etc, cfg.beta)
    return state.global_best_assignment.copy(), report, log


def run_pure_pso(
    workload: Workload, vms: Sequence[VmSpec], config: OptimizerConfig
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Velocity-only ablation: blend pinned to 0, diversity control off."""
    pinned = replace(
        config,
        lambda_max=0.0,
        lambda_min=0.0,
        diversity_control=False,
        blend_weight_on_pso=False,
    )
    return run(workload, vms, pinned)


def run_pure_gwo(
    workload: Workload, vms: Sequence[VmSpec], config: OptimizerConfig
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Guidance-only ablation: blend pinned to 1, diversity control off."""
    pinned = replace(
        config,
        lambda_max=1.0,
        lambda_min=1.0,
        diversity_control=False,
        blend_weight_on_pso=False,
    )
    return run(workload, vms, pinned)
