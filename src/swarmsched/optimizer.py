"""Hybrid swarm optimizer for task placement.

Each member of the population is simultaneously a PSO particle (inertia plus
attraction to its personal best and to the global best) and a grey-wolf
follower (guided by the three best solutions found so far, the alpha being
the global best). A blend weight on the guidance term, decaying linearly
across iterations, shifts influence from wolf-pack exploration toward
velocity refinement. When the swarm's diversity falls below the floor d_min,
a Gaussian mutation reinflates it; d_min = 0 switches mutation off, since
diversity is never negative.

Positions decode through floor(|x|) mod m, so the update rules treat every
coordinate as a point on a circle of circumference m (the decode period):
offsets toward an attractor take their shortest way round the circle, and
every new position folds back into [0, m). Plain differences, and an
encircling distance measured from the origin, would instead pull coordinates
toward the middle of the period and decodes toward the middle VMs.

The swarm lives in (S, n) matrices, one row per particle, and the leaders
alpha, beta and delta in the rows of one (3, n) table. A step moves the
swarm in blocks of rows with one array expression per update rule, maps the
same blocks of rows with one mapper call each, scores the whole swarm from
its (S, m) loads matrix in one pass, and ranks the leaders anew with one
stable sort of the old leaders and the rows that beat delta.

A converged swarm keeps proposing plans it has already scored. So when the
decode space is small, m ** n <= 2 ** 16 plans (8 tasks on 3 VMs have 3 ** 8
= 6561), a run keeps a fitness table with one float64 per plan, NaN until
the plan is evaluated: 512 KiB at most. Each evaluation decodes the swarm
once, and only the rows whose plan has no entry are mapped and scored; the
others read their fitness from the table. This is exact, because within a
run a plan's assignment, loads and fitness depend only on the plan, the ETC
matrix, the capacity threshold and beta. Above the bound, every row is
mapped and scored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import IO, ClassVar, Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .domain import EtcMatrix, VmSpec, Workload, build_etc
from .encoding import capacity_threshold, decode_position, map_with_loads
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

    At the default coefficients the default v_max of 10m never binds. Every
    attractor offset is wrapped to at most m / 2, so for inertia w < 1 a
    velocity that starts at zero stays within (c1 + c2) * m / (2 * (1 - w)),
    which is 5m at the defaults. The clamp acts only when v_max is set below
    that bound or inertia is at least 1, where velocities can grow without it.
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
    seed: int = 0

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{knob.name} must be finite, got {value}")
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
            v_max=self.v_max if self.v_max is not None else 10.0 * m,
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
    The rows of leaders, (3, n), are alpha, beta and delta: the three
    lowest-fitness positions evaluated so far, with their fitnesses in
    leader_fitness, (3,), in ascending order. Ties keep evaluation order:
    earlier leaders first, then lower rows. So leaders[0], alpha, is the
    global best, and the velocity rule pulls toward it. threshold is the
    mapper's capacity threshold, fixed for the run. fitness_table, when the
    decode space is small enough to have one, holds the fitness of every plan
    evaluated in this run, NaN elsewhere; it is only valid for the ETC
    matrix, threshold and beta it was filled with.
    """

    positions: np.ndarray
    velocities: np.ndarray
    personal_best_positions: np.ndarray
    personal_best_fitness: np.ndarray
    leaders: np.ndarray
    leader_fitness: np.ndarray
    threshold: float
    fitness_table: np.ndarray | None
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


# The convergence CSV's column name for each IterationStats field it renames.
_LOG_COLUMNS = {"blend_weight": "lambda", "gwo_a": "a"}


@dataclass
class ConvergenceLog:
    """Per-iteration trace of one run; serializes to CSV, one column per IterationStats field."""

    rows: list[IterationStats] = field(default_factory=list)

    CSV_HEADER: ClassVar[tuple[str, ...]] = tuple(
        _LOG_COLUMNS.get(stat.name, stat.name) for stat in fields(IterationStats)
    )

    def best_fitness_series(self) -> list[float]:
        return [row.best_fitness for row in self.rows]

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.CSV_HEADER)
        for row in self.rows:
            values = (getattr(row, stat.name) for stat in fields(IterationStats))
            # flags as 0/1
            writer.writerow([int(value) if isinstance(value, bool) else value for value in values])


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

# Largest decode space, in plans (m ** n), that a run keeps a fitness table
# for: 512 KiB of float64.
_TABLE_PLANS = 2**16


def _wrap_offset(offset: np.ndarray, period: float, work: np.ndarray) -> None:
    """Reduce offsets modulo the period to their shortest form, |d| <= period / 2.

    In place: offset becomes offset - period * rint(offset / period), and
    work, of offset's shape, is overwritten on the way.
    """
    # cheaper than np.mod on floats
    np.divide(offset, period, out=work)
    np.rint(work, out=work)
    work *= period
    offset -= work


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
    # inertia * V + c1 * r1 * wrap(P - X) + c2 * r2 * wrap(G - X), added in
    # that order; each product is commutative, so the in-place forms are
    # bit for bit the plain expression
    velocity = np.multiply(velocities, config.inertia)
    pull = np.subtract(personal_best_positions, positions)
    work = np.empty_like(pull)
    _wrap_offset(pull, period, work)
    pull *= np.multiply(r1, config.c1, out=work)
    velocity += pull
    np.subtract(global_best, positions, out=pull)
    _wrap_offset(pull, period, work)
    pull *= np.multiply(r2, config.c2, out=work)
    velocity += pull
    return np.clip(velocity, -config.v_max, config.v_max, out=velocity)


def gwo_guidance(
    positions: np.ndarray,
    leaders: np.ndarray,
    a: float,
    draws: np.ndarray,
    period: float,
) -> np.ndarray:
    """Mean of the three leader-guided points, fresh draws per leader and component.

    Rows are particles: positions is (k, n) and draws is (k, 8n), whose first
    3n columns give A and next 3n give C, leader by leader. The rows of
    leaders, (3, n), are alpha, beta and delta. With D the
    leader's offset from the position, wrapped modulo the decode period, each
    guided point is position + D - A * |C * D|: the encircling rule
    L - A * |C * L - X| measured from the position rather than from the
    origin, so that it does not depend on where the coordinate sits in the period.
    """
    if a < 0:
        raise ValueError(f"a must be non-negative, got {a}")
    k, n = positions.shape
    offset = np.subtract(leaders, positions[:, np.newaxis])  # (k, 3, n)
    work = np.empty_like(offset)
    _wrap_offset(offset, period, work)
    # |C * D| with C = 2 * draw in [0, 2], then A * |C * D| with
    # A = 2a * draw - a in [-a, a]; products commute, so writing them in
    # place gives the plain expression bit for bit
    np.multiply(draws[:, 3 * n : 6 * n].reshape(k, 3, n), 2.0, out=work)
    work *= offset
    np.abs(work, out=work)
    a_coef = np.multiply(draws[:, : 3 * n].reshape(k, 3, n), 2.0 * a)
    a_coef -= a
    work *= a_coef
    offset -= work
    # sum / 3 equals mean(axis=1) bit for bit without np.mean's Python overhead
    guided = offset.sum(axis=1)
    guided /= 3.0
    guided += positions
    return guided


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
    positions: np.ndarray, sigma: float, rng: np.random.Generator, period: float
) -> None:
    """Perturb every coordinate of every row of positions by N(0, sigma^2),
    then fold the result into [0, period], in place.

    The rows draw their kicks from rng in row order. Personal bests and
    velocities are left untouched; only positions move.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    # row by row: whole-swarm kicks and their temporaries raised peak memory
    # by about 3 MB at 5000 tasks, and mutation is too rare to gain from them
    for row in positions:
        row[:] = _fold_position(row + rng.normal(0.0, sigma, row.shape[0]), period)


def _fitness_table(n: int, m: int) -> np.ndarray | None:
    """One NaN entry per plan if the decode space has at most _TABLE_PLANS plans."""
    # m ** 17 exceeds the bound for every m >= 2, and 1 ** n is 1
    plans = m ** min(n, 17)
    return np.full(plans, np.nan) if plans <= _TABLE_PLANS else None


def _map_and_score(
    positions: np.ndarray, etc: EtcMatrix, threshold: float, beta: float
) -> np.ndarray:
    """Map the rows block by block, then score all rows from their loads at once."""
    swarm, n = positions.shape
    loads = np.empty((swarm, etc.m))
    block = max(1, _BLOCK_COORDS // n)
    for start in range(0, swarm, block):
        rows = slice(start, start + block)
        loads[rows] = map_with_loads(positions[rows], etc, threshold)[1]
    return score_loads(loads, beta)[3]


def _evaluate_swarm(
    positions: np.ndarray,
    etc: EtcMatrix,
    threshold: float,
    beta: float,
    table: np.ndarray | None,
) -> np.ndarray:
    """Fitness of every row, through the fitness table if any.

    Without a table every row is mapped and scored. With one, a row's key is
    its decoded plan d read as the base-m number sum_i d_i * m**i. Only the
    rows whose plan has no entry yet are mapped and scored, and their fitness
    fills the table; the other rows read their fitness from it.
    """
    if table is None:
        return _map_and_score(positions, etc, threshold, beta)
    keys = decode_position(positions, etc.m) @ etc.m ** np.arange(positions.shape[1])
    fit = table[keys]
    fresh = np.flatnonzero(np.isnan(fit))
    if fresh.size:
        fit[fresh] = _map_and_score(positions[fresh], etc, threshold, beta)
        table[keys[fresh]] = fit[fresh]
    return fit


def initialize_swarm(
    etc: EtcMatrix,
    config: OptimizerConfig,
    rng: np.random.Generator,
    seeded_positions: Sequence[np.ndarray] | None = None,
) -> SwarmState:
    """Uniform positions in [0, m) per coordinate, zero velocities, bests evaluated.

    `seeded_positions` occupy the first slots verbatim. Each must have shape
    (n,) and every coordinate in [0, m), the interval every moved position
    folds into. The rest of the swarm is one uniform draw from rng, in row
    order. Config must already be resolved.
    """
    n, m = etc.n, etc.m
    seeded = [np.asarray(p, dtype=float) for p in (seeded_positions or [])]
    if len(seeded) > config.swarm_size:
        raise ValueError(
            f"{len(seeded)} seeded positions exceed swarm_size {config.swarm_size}"
        )
    for i, seed in enumerate(seeded):
        # folding would not do: floor(|x|) mod m sends -0.5 to VM 0, but its
        # fold m - 0.5 to VM m - 1
        if seed.shape != (n,) or not np.all((seed >= 0) & (seed < m)):
            raise ValueError(
                f"seeded position {i} must have shape ({n},) and every coordinate in [0, {m})"
            )
    threshold = capacity_threshold(etc, config.headroom_theta)
    positions = np.vstack([*seeded, rng.uniform(0.0, m, (config.swarm_size - len(seeded), n))])
    table = _fitness_table(n, m)
    fit = _evaluate_swarm(positions, etc, threshold, config.beta, table)
    # the three lowest rows, ties in row order; a pack of two repeats beta as delta
    top = np.argsort(fit, kind="stable")[np.minimum(np.arange(3), config.swarm_size - 1)]
    return SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        personal_best_positions=positions.copy(),
        personal_best_fitness=fit,
        leaders=positions[top],
        leader_fitness=fit[top],
        threshold=threshold,
        fitness_table=table,
    )


def step(
    state: SwarmState,
    etc: EtcMatrix,
    config: OptimizerConfig,
    rng: np.random.Generator,
    log: ConvergenceLog,
) -> SwarmState:
    """Advance one iteration: diversity check and mutation, then the swarm move.

    Synchronous scheme: the leaders are frozen while every particle moves and
    is evaluated, then personal bests and the leaders absorb the new
    evaluations. The new leaders are the first three of a stable sort by
    fitness of the old leaders, then the rows in row order: the classic
    cascade, which pushes each row through and promotes only a strictly
    lower fitness, keeps the same three. The move runs over blocks of rows,
    one array expression per update rule. Each block fills its rows of draws
    from rng in row order, so every particle gets the same 8n uniforms
    whatever the block size.

    A blend weight of exactly 0 skips the guidance and the blend, and one of
    exactly 1 skips the blend: the zero-weighted term adds only a signed
    zero, which changes no nonzero sum, and the fold maps -0.0 and 0.0 alike
    to 0.0. The draws are made all the same, so the stream does not move.
    """
    t = state.iteration + 1
    m = etc.m
    positions = state.positions
    swarm, n = positions.shape
    diversity = swarm_diversity(positions)
    mutated = diversity < config.d_min
    if mutated:
        inject_mutation(positions, mutation_sigma(config, diversity, m), rng, m)
    lam = blend_weight(t, config)
    a = gwo_coefficient_a(t, config)

    block = max(1, _BLOCK_COORDS // n)
    draws = np.empty((min(block, swarm), DRAWS_PER_COORD * n))
    for start in range(0, swarm, block):
        rows = slice(start, min(start + block, swarm))
        block_draws = draws[: rows.stop - start]
        rng.random(out=block_draws)
        velocity = velocity_update(
            positions[rows],
            state.velocities[rows],
            state.personal_best_positions[rows],
            state.leaders[0],
            config,
            block_draws,
            m,
        )
        if lam == 0.0:
            positions[rows] = _fold_position(positions[rows] + velocity, m)
        else:
            guide = gwo_guidance(positions[rows], state.leaders, a, block_draws, m)
            positions[rows] = (
                _fold_position(guide, m)
                if lam == 1.0
                else combined_update(positions[rows], guide, lam, velocity, m)
            )
        state.velocities[rows] = velocity

    fit = _evaluate_swarm(positions, etc, state.threshold, config.beta, state.fitness_table)
    improved = fit < state.personal_best_fitness
    state.personal_best_positions[improved] = positions[improved]
    state.personal_best_fitness[improved] = fit[improved]
    # delta only falls, so no row at or above it now can become a leader
    entrants = np.flatnonzero(fit < state.leader_fitness[2])
    if entrants.size:
        pool = np.concatenate([state.leader_fitness, fit[entrants]])
        # stable: the default sort may rank tied fitnesses in any order
        top = np.argsort(pool, kind="stable")[:3]
        state.leaders = np.concatenate([state.leaders, positions[entrants]])[top]
        state.leader_fitness = pool[top]
    state.iteration = t
    log.rows.append(
        IterationStats(
            iteration=t,
            best_fitness=float(state.leader_fitness[0]),
            mean_fitness=float(fit.mean()),
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

    The assignment is alpha's mapped plan: alpha, row 0 of the leader table,
    is mapped once, after the last step, since the mapper gives a position
    the same plan every time within a run. One generator, seeded with the
    config's seed, drives the whole run, and every draw takes the swarm's
    rows in order, so the result does not depend on the block size.
    """
    etc = build_etc(workload, vms)
    cfg = config.resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng, seeded_positions)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
    assignment = map_with_loads(state.leaders[0], etc, state.threshold)[0]
    return assignment, evaluate_assignment(assignment, etc, cfg.beta), log


def run_pure_pso(
    workload: Workload, vms: Sequence[VmSpec], config: OptimizerConfig
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Velocity-only ablation: blend pinned to 0, mutation off."""
    return run(workload, vms, replace(config, lambda_max=0.0, lambda_min=0.0, d_min=0.0))


def run_pure_gwo(
    workload: Workload, vms: Sequence[VmSpec], config: OptimizerConfig
) -> tuple[np.ndarray, MetricsReport, ConvergenceLog]:
    """Guidance-only ablation: blend pinned to 1, mutation off."""
    return run(workload, vms, replace(config, lambda_max=1.0, lambda_min=1.0, d_min=0.0))
