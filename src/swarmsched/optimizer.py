"""Hybrid swarm optimizer for task placement.

Each member of the population is simultaneously a PSO particle (inertia plus
attraction to its personal best and to the global best) and a grey-wolf
follower (guided by the three best solutions found so far, the alpha being
the global best). A blend weight on the guidance term, decaying linearly
across iterations, shifts influence from wolf-pack exploration toward
velocity refinement. When the swarm's diversity falls below the floor d_min,
a Gaussian mutation reinflates it; d_min = 0 switches mutation off, since
diversity is never negative.

A coordinate decodes through |x| mod m, a point on a circle of
circumference m (the decode period) that the VMs' arcs cover, each arc as
long as its VM's share of the fleet's speed; on identical VMs the decode
is floor(|x|) mod m. So the update rules treat every coordinate as a point
on that circle: offsets toward an attractor take their shortest way round
it, and every new position folds back into [0, m). Plain differences, and
an encircling distance measured from the origin, would instead pull
coordinates toward the middle of the period and decodes toward the middle
VMs.

The swarm lives in (S, n) matrices, one row per particle, and the leaders
alpha, beta and delta in the rows of one (3, n) table. A step moves the
swarm in blocks of rows, in place. Per block it wraps the leaders' offsets
from the rows once (the guidance reads all three, the velocity rule
alpha's), calls each update rule once, and writes the new velocities and
positions into the block's own rows. It then maps the same blocks of rows
with one mapper call each, scores the whole swarm from its (S, m) loads
matrix in one pass, and ranks the leaders anew with one stable sort of the
old leaders and the rows that beat delta. Every in-place form runs the
plain expression's operations in the same order, so the results are bit
for bit those of the plain expressions.

A converged swarm keeps proposing plans it has already scored. So when the
decode space is small, m ** n <= 2 ** 13 plans (8 tasks on 3 VMs have 3 ** 8
= 6561), a run scores every plan once, up front, into a fitness table of one
float64 per plan: 64 KiB at most. The table fills task by task over plan
prefixes, so the plans that share a prefix share its placement, and each
evaluation after that decodes the swarm once and reads its fitness from the
table. This is exact, because within a run a plan's assignment, loads and
fitness depend only on the plan, the ETC matrix, the capacity threshold and
beta. Above the bound, every row is mapped and scored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import IO, ClassVar, Sequence

import numpy as np

try:
    # the compiled kernel that pdist(x) ends in for the Euclidean metric;
    # pdist's array-API dispatch around it costs several times the kernel
    # on a swarm of 20 short rows
    from scipy.spatial._distance_pybind import pdist_euclidean as _pdist_euclidean
except ImportError:  # a scipy that moved its private module: the same numbers, slower
    from scipy.spatial.distance import pdist as _pdist_euclidean

from .domain import EtcMatrix, VmSpec, Workload, build_etc, check_integer
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
    "leader_offsets",
    "velocity_update",
    "gwo_guidance",
    "combined_update",
    "swarm_diversity",
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

    v_max, d_min and beta default to None and are filled in against a
    concrete problem by resolve(): their natural scales depend on the VM
    count m and task count n.

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
    beta: float | None = None
    headroom_theta: float = 1.2
    seed: int = 0

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{knob.name} must be finite, got {value}")
            if knob.name in ("swarm_size", "max_iterations", "seed"):
                check_integer(knob.name, value)
            elif isinstance(value, (bool, np.bool_)):
                # a bool compares as 0 or 1, so the range checks below would pass it
                raise ValueError(f"{knob.name} must be a number, got {value!r}")
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
    and entry i of personal_best_fitness, (S,), belong to particle i. A pure
    GWO run (lambda_min = 1) never reads a velocity, so its velocities stay
    zero.
    The rows of leaders, (3, n), are alpha, beta and delta: the three
    lowest-fitness positions evaluated so far, with their fitnesses in
    leader_fitness, (3,), in ascending order. Ties keep evaluation order:
    earlier leaders first, then lower rows. So leaders[0], alpha, is the
    global best, and the velocity rule pulls toward it. threshold is the
    mapper's capacity threshold, fixed for the run. fitness_table, when the
    decode space is small enough to have one, holds the fitness of every
    plan, filled when the swarm is initialized; it is only valid for the ETC
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


# Coordinates per block of rows that a step moves, maps or kicks at once. A
# block's largest temporaries, the leader offsets and the guidance's work
# arrays, are (k, 3, n) float64, 24 bytes per coordinate: 96 KiB here, under
# glibc malloc's default 128 KiB mmap threshold, so they are reused heap
# memory. Blocks of 2**14 coordinates had every such temporary mapped and
# faulted in afresh, about 34k minor page faults per run at 800x4 and 50k at
# 5000x8. At 5000 tasks a block is one row.
_BLOCK_COORDS = 2**12

# Largest decode space, in plans (m ** n), that a run scores whole into a
# fitness table: 64 KiB of float64. The fill costs about 55-130 ns a plan on
# up to 4 VMs, and mapping a plan when the swarm first proposes it about
# 20 us, but a run proposes only a few hundred distinct plans: at 3 ** 8
# plans filling is the cheaper, at 2 ** 16 it made runs 1.7-2.1 times as
# long, and the two break even between 2 ** 14 and 2 ** 15
# (BENCH_eager_table.json).
_TABLE_PLANS = 2**13


def _row_blocks(swarm: int, n: int) -> list[slice]:
    """The blocks of rows, in row order, that a swarm of n-coordinate rows runs in."""
    block = max(1, _BLOCK_COORDS // n)
    return [slice(start, min(start + block, swarm)) for start in range(0, swarm, block)]


# 1 / period for every period that is a power of two, 2 ** 0 to 2 ** 62.
# Dividing by 2 ** k and multiplying by the exact 2 ** -k round the same real
# number, so they agree bit for bit, signed zeros and subnormals included,
# and a multiply costs less than half a divide. For any other period the
# reciprocal is inexact, and x * (1 / period) can differ from x / period.
_EXACT_RECIPROCALS = {2**k: 2.0**-k for k in range(63)}


def _over_period(x: np.ndarray, period: float, out: np.ndarray) -> None:
    """Write x / period into out, bit for bit, by an exact reciprocal where one exists."""
    reciprocal = _EXACT_RECIPROCALS.get(period)
    if reciprocal is None:
        np.divide(x, period, out=out)
    else:
        np.multiply(x, reciprocal, out=out)


def _wrap_offset(offset: np.ndarray, period: float, work: np.ndarray) -> None:
    """Reduce offsets modulo the period to their shortest form, |d| <= period / 2.

    In place: offset becomes offset - period * rint(offset / period), and
    work, of offset's shape, is overwritten on the way.
    """
    # cheaper than np.mod on floats
    _over_period(offset, period, work)
    np.rint(work, out=work)
    work *= period
    offset -= work


def _fold_position(position: np.ndarray, period: float, out: np.ndarray) -> None:
    """Write position folded into [0, period], the decode's fundamental interval, into out.

    out is a separate array of position's shape. Rounding can land a tiny
    negative coordinate on period itself, which decodes like 0.
    """
    # position - period * floor(position / period), one operation at a time
    _over_period(position, period, out)
    np.floor(out, out=out)
    out *= period
    np.subtract(position, out, out=out)


def leader_offsets(positions: np.ndarray, leaders: np.ndarray, period: float) -> np.ndarray:
    """Each leader's offset from each position, wrapped modulo the decode period.

    positions is (k, n) and leaders (l, n); the result is (k, l, n), and
    [:, 0] of it, alpha's offsets, is the velocity rule's pull toward the
    global best.
    """
    offsets = np.subtract(leaders, positions[:, np.newaxis])
    _wrap_offset(offsets, period, np.empty_like(offsets))
    return offsets


def velocity_update(
    positions: np.ndarray,
    velocities: np.ndarray,
    personal_best_positions: np.ndarray,
    alpha_offsets: np.ndarray,
    config: OptimizerConfig,
    draws: np.ndarray,
    period: float,
) -> np.ndarray:
    """Inertia plus stochastic pulls toward personal and global bests, clamped.

    Rows are particles: positions, velocities, personal bests and
    alpha_offsets are (k, n), and draws is (k, 2n), the pulls r1 then r2.
    Each pull follows the attractor's offset wrapped modulo the decode
    period; alpha_offsets, the global best's, come from leader_offsets. The
    new velocities overwrite velocities, which is returned.
    """
    n = positions.shape[1]
    r1 = draws[:, :n]
    r2 = draws[:, n:]
    # inertia * V + c1 * r1 * wrap(P - X) + c2 * r2 * wrap(G - X), added in
    # that order; each product is commutative, so the in-place forms are
    # bit for bit the plain expression
    pull = np.subtract(personal_best_positions, positions)
    work = np.empty_like(pull)
    _wrap_offset(pull, period, work)
    pull *= np.multiply(r1, config.c1, out=work)
    velocities *= config.inertia
    velocities += pull
    np.multiply(r2, config.c2, out=work)
    work *= alpha_offsets
    velocities += work
    np.minimum(velocities, config.v_max, out=velocities)  # then maximum: np.clip at half the cost
    return np.maximum(velocities, -config.v_max, out=velocities)


def gwo_guidance(
    positions: np.ndarray,
    offsets: np.ndarray,
    a: float,
    draws: np.ndarray,
) -> np.ndarray:
    """Mean of the three leader-guided points, fresh draws per leader and component.

    Rows are particles: positions is (k, n), offsets (k, 3, n) and draws
    (k, 6n), whose first 3n columns give A and last 3n give C, leader by
    leader. offsets are alpha's, beta's and delta's offsets D from each
    position, wrapped modulo the decode period (leader_offsets); they are
    overwritten. Each guided point is position + D - A * |C * D|: the
    encircling rule L - A * |C * L - X| measured from the position rather
    than from the origin, so that it does not depend on where the coordinate
    sits in the period.
    """
    if a < 0:
        raise ValueError(f"a must be non-negative, got {a}")
    k, n = positions.shape
    work = np.empty_like(offsets)
    # |C * D| with C = 2 * draw in [0, 2], then A * |C * D| with
    # A = 2a * draw - a in [-a, a]; products commute, so writing them in
    # place gives the plain expression bit for bit. Fresh buffers, not the
    # draws' own strided columns: numpy runs those passes slower.
    np.multiply(draws[:, 3 * n :].reshape(k, 3, n), 2.0, out=work)
    work *= offsets
    np.abs(work, out=work)
    a_coef = np.multiply(draws[:, : 3 * n].reshape(k, 3, n), 2.0 * a)
    a_coef -= a
    work *= a_coef
    offsets -= work
    # the reduce that sum(axis=1) runs, then / 3: mean(axis=1) bit for bit
    guided = np.add.reduce(offsets, axis=1)
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

    Elementwise, so one call moves a single particle or a block of rows. The
    result overwrites position, which is returned; gwo_position is
    overwritten on the way.
    """
    if not 0 <= blend <= 1:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    # each product and the sum commute, so the in-place forms are bit for
    # bit the plain expression
    gwo_position *= blend
    position += velocity
    position *= 1.0 - blend
    gwo_position += position
    _fold_position(gwo_position, period, position)
    return position


def swarm_diversity(positions: Sequence[Sequence[float]] | np.ndarray) -> float:
    """Mean Euclidean distance over all unordered pairs of particle positions.

    The distances come from scipy's compiled kernel that pdist(points)
    dispatches to, so they are pdist's bit for bit; on a scipy without that
    private module, from pdist itself.
    """
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("diversity undefined: need at least two particles")
    distances = _pdist_euclidean(points)
    # the reduce and division that mean() runs, without its Python wrapper
    return float(np.add.reduce(distances) / distances.size)


def inject_mutation(
    positions: np.ndarray, sigma: float, rng: np.random.Generator, period: float
) -> None:
    """Perturb every coordinate of every row of positions by N(0, sigma^2),
    then fold the result into [0, period], in place.

    The rows draw their kicks from rng in row order, one normal draw per
    block of rows: a (k, n) draw takes the same values from the stream as k
    draws of n. Personal bests and velocities are left untouched; only
    positions move.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    # in blocks of rows, as the move runs: at 8x3 one draw kicks the whole
    # swarm in about a tenth of the time that a draw per row takes, and at
    # 5000 tasks a block is one row, so the kicks hold a row's worth at most
    for rows in _row_blocks(*positions.shape):
        block = positions[rows]
        kicks = rng.normal(0.0, sigma, block.shape)
        kicks += block
        _fold_position(kicks, period, block)


def _fitness_table(etc: EtcMatrix, threshold: float, beta: float) -> np.ndarray | None:
    """The fitness of every plan, at key sum_i d_i * m**i, if there are at most _TABLE_PLANS.

    The plans fill task by task, as the mapper places them. The loads of
    every prefix of the first i tasks are held VM-major, (m, m ** i), a
    prefix's key in its column. Placing task i on VM d turns key p into
    p + d * m**i, so the new prefixes are m blocks of the old, one per d.
    The VM a breaching task falls back to, the first least-loaded, depends
    only on the prefix, and the placed VM gains the task's ETC while every
    other VM gains +0.0, which leaves its load as it was: each load is the
    sum the mapper accumulates, bit for bit. The m ** (n - i) plans that
    extend a prefix share its placement.
    """
    n, m = etc.n, etc.m
    # 2 ** bits exceeds the bound, so m ** bits does for every m >= 2, and 1 ** n is 1
    bits = _TABLE_PLANS.bit_length()
    if m ** min(n, bits) > _TABLE_PLANS:
        return None
    vms = np.arange(m)[:, np.newaxis]
    loads = np.zeros((m, 1))
    for length in etc.lengths_mi.tolist():
        costs = length / etc.mips
        fallback = np.argmin(loads, axis=0)  # the first minimum, as loads.index(min(loads))
        placed = np.where(loads + costs[:, np.newaxis] > threshold, fallback, vms)  # (d, prefixes)
        gains = np.where(vms[:, np.newaxis] == placed, costs[:, np.newaxis, np.newaxis], 0.0)
        loads = (loads[:, np.newaxis] + gains).reshape(m, -1)
    # numpy sums a C-contiguous row of 8 or more loads pairwise but a column
    # of the transposed view in sequence, and the mapper's loads are rows:
    # from 8 VMs the two sums can differ in the last bit
    return score_loads(loads.T if m < 8 else np.ascontiguousarray(loads.T), beta)[3]


def _map_and_score(
    positions: np.ndarray, etc: EtcMatrix, threshold: float, beta: float
) -> np.ndarray:
    """Map the rows block by block, then score all rows from their loads at once."""
    swarm, n = positions.shape
    loads = np.empty((swarm, etc.m))
    for rows in _row_blocks(swarm, n):
        loads[rows] = map_with_loads(positions[rows], etc, threshold)[1]
    return score_loads(loads, beta)[3]


def _evaluate_swarm(
    positions: np.ndarray,
    etc: EtcMatrix,
    threshold: float,
    beta: float,
    table: np.ndarray | None,
) -> np.ndarray:
    """Fitness of every row: read from the fitness table if any, else mapped and scored.

    A row's key in the table is its plan d, decoded through the speed arcs
    as the mapper decodes it, read as the base-m number sum_i d_i * m**i.
    """
    if table is None:
        return _map_and_score(positions, etc, threshold, beta)
    keys = decode_position(positions, etc.m, etc.arcs) @ etc.m ** np.arange(positions.shape[1])
    return table[keys]


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
    order. Config must already be resolved. On a decode space small enough
    for a fitness table, every plan is scored into it first, and the swarm
    reads its fitness from it.
    """
    n, m = etc.n, etc.m
    seeded = [np.asarray(p, dtype=float) for p in (seeded_positions or [])]
    if len(seeded) > config.swarm_size:
        raise ValueError(
            f"{len(seeded)} seeded positions exceed swarm_size {config.swarm_size}"
        )
    for i, seed in enumerate(seeded):
        # folding would not do: the decode reads |x|, so -0.5 decodes like
        # 0.5, on VM 0's arc on identical VMs, but its fold m - 0.5 on VM m - 1's
        if seed.shape != (n,) or not np.all((seed >= 0) & (seed < m)):
            raise ValueError(
                f"seeded position {i} must have shape ({n},) and every coordinate in [0, {m})"
            )
    threshold = capacity_threshold(etc, config.headroom_theta)
    positions = np.vstack([*seeded, rng.uniform(0.0, m, (config.swarm_size - len(seeded), n))])
    table = _fitness_table(etc, threshold, config.beta)
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


def _move_swarm(
    state: SwarmState,
    config: OptimizerConfig,
    rng: np.random.Generator,
    blend: float,
    a: float,
    period: float,
) -> None:
    """Move every row of state.positions, and state.velocities with them, in place.

    The move runs over blocks of rows, one call per update rule and block.
    The config fixes which rules a run uses, and so its draws. Pure PSO
    (lambda_max = 0) only updates velocities and moves by them, drawing r1
    and r2 (2n per particle). Pure GWO (lambda_min = 1) only moves to the
    guidance, drawing A and C (6n), and its velocities stay zero. Every
    other run does both and blends them, drawing A, C, r1 and r2 (8n), even
    at a step whose blend weight is 0 or 1: the zero-weighted term adds
    only a signed zero, and the fold maps -0.0 and 0.0 alike to 0.0. Each
    block fills its rows of draws with one rng.random call, in row order,
    so every particle gets the same uniforms whatever the block size.
    """
    positions = state.positions
    swarm, n = positions.shape
    # tested on the config, not on the blend: a lambda_min just below 1
    # rounds the early steps' blend to 1.0, and later steps still read the
    # velocities
    pure_pso = config.lambda_max == 0.0
    pure_gwo = config.lambda_min == 1.0
    # pure PSO reads alpha's offsets only
    leaders = state.leaders[:1] if pure_pso else state.leaders
    # a row of draws holds A (3n, leader by leader) and C (3n) if the run
    # uses the guidance, then r1 (n) and r2 (n) if it uses the velocities
    guide_width = 0 if pure_pso else 6 * n

    blocks = _row_blocks(swarm, n)
    draws = np.empty((blocks[0].stop, guide_width + (0 if pure_gwo else 2 * n)))
    for rows in blocks:
        block_draws = draws[: rows.stop - rows.start]
        rng.random(out=block_draws)
        position = positions[rows]
        offsets = leader_offsets(position, leaders, period)
        if pure_gwo:
            guide = gwo_guidance(position, offsets, a, block_draws)
            _fold_position(guide, period, position)
            continue
        velocity = velocity_update(
            position,
            state.velocities[rows],
            state.personal_best_positions[rows],
            offsets[:, 0],
            config,
            block_draws[:, guide_width:],
            period,
        )
        if pure_pso:
            _fold_position(position + velocity, period, position)
        else:
            guide = gwo_guidance(position, offsets, a, block_draws[:, :guide_width])
            combined_update(position, guide, blend, velocity, period)


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
    lower fitness, keeps the same three. The move (_move_swarm) writes the
    new positions and velocities in place, and its buffers are freed before
    the swarm is evaluated.
    """
    t = state.iteration + 1
    m = etc.m
    positions = state.positions
    diversity = swarm_diversity(positions)
    mutated = diversity < config.d_min
    if mutated:
        # the kick grows as diversity falls below the floor, never below 0.01m
        sigma = max(0.1 * m * (1.0 - diversity / config.d_min), 0.01 * m)
        inject_mutation(positions, sigma, rng, m)
    lam = blend_weight(t, config)
    a = gwo_coefficient_a(t, config)
    _move_swarm(state, config, rng, lam, a, m)

    fit = _evaluate_swarm(positions, etc, state.threshold, config.beta, state.fitness_table)
    improved = fit < state.personal_best_fitness
    state.personal_best_positions[improved] = positions[improved]
    state.personal_best_fitness[improved] = fit[improved]
    # delta only falls, so no row at or above it now can become a leader
    entrants = (fit < state.leader_fitness[2]).nonzero()[0]
    if entrants.size:
        pool = np.concatenate([state.leader_fitness, fit[entrants]])
        # stable: the default sort may rank tied fitnesses in any order
        top = pool.argsort(kind="stable")[:3]
        state.leaders = np.concatenate([state.leaders, positions[entrants]])[top]
        state.leader_fitness = pool[top]
    state.iteration = t
    log.rows.append(
        IterationStats(
            iteration=t,
            best_fitness=float(state.leader_fitness[0]),
            mean_fitness=float(np.add.reduce(fit) / fit.size),
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
    """Guidance-only ablation: blend pinned to 1, mutation off.

    The velocity rule never runs, so the swarm's velocities stay zero.
    """
    return run(workload, vms, replace(config, lambda_max=1.0, lambda_min=1.0, d_min=0.0))
