"""Reference optimizer: one particle at a time, one numpy call per rule.

This is the plain per-particle form of swarmsched.optimizer's run, kept as
the oracle its matrix form must match bit for bit. Each particle is an object
with its own arrays; all of them draw from the run's one generator, in
particle order. A step draws a particle's A (3n) and C (3n) if the run ever
weights the guidance (lambda_max > 0), then its r1 (n) and r2 (n) if it ever
weights the velocities (lambda_min < 1). It then updates the particle, maps
it and scores it from its loads with the scalar formulas. Nothing here calls
into the code under test except the pieces both forms share by design: the
schedules, mutation strength, load_vector and EtcMatrix's speed arcs. The
diversity is computed here from scipy's public pdist, so the oracle also
checks the optimizer's diversity kernel and the mutation decisions that
depend on it. Positions are decoded and mapped by the sequential reference
mapper, whose arc decode counts edges coordinate by coordinate, not by the
block mapper.

The reference keeps its own global best, absorbed particle by particle from
the personal-best updates, apart from the leader cascade, so that the oracle
checks that the optimizer's alpha is the global best rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from swarmsched.domain import build_etc
from swarmsched.encoding import capacity_threshold
from swarmsched.metrics import MetricsReport, load_vector
from swarmsched.optimizer import (
    ConvergenceLog,
    IterationStats,
    blend_weight,
    gwo_coefficient_a,
)

from reference_mapper import map_with_loads


@dataclass
class RefParticle:
    position: np.ndarray
    velocity: np.ndarray
    personal_best_position: np.ndarray
    personal_best_fitness: float


@dataclass
class RefState:
    particles: list[RefParticle]
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


def scalar_report(loads: np.ndarray, n: int, beta: float) -> MetricsReport:
    """One load vector's metrics in scalar steps; fitness is makespan + beta * (1 - BOI)."""
    makespan_s = float(np.max(loads))
    cv = float(loads.std() / loads.mean())
    boi = 1.0 / (1.0 + cv)
    return MetricsReport(makespan_s, n / makespan_s, cv, boi, makespan_s + beta * (1.0 - boi))


def _wrap(offset, period):
    return offset - period * np.rint(offset / period)


def _fold(position, period):
    return position - period * np.floor(position / period)


def velocity_update(particle, global_best, config, rng, period):
    n = particle.position.shape[0]
    r1 = rng.random(n)
    r2 = rng.random(n)
    velocity = (
        config.inertia * particle.velocity
        + config.c1 * r1 * _wrap(particle.personal_best_position - particle.position, period)
        + config.c2 * r2 * _wrap(global_best - particle.position, period)
    )
    return np.clip(velocity, -config.v_max, config.v_max)


def gwo_guidance(position, alpha, beta_wolf, delta, a, rng, period):
    leaders = np.stack([alpha, beta_wolf, delta])
    a_coef = 2.0 * a * rng.random(leaders.shape) - a
    c_coef = 2.0 * rng.random(leaders.shape)
    offset = _wrap(leaders - position, period)
    return position + (offset - a_coef * np.abs(c_coef * offset)).sum(axis=0) / 3.0


def combined_update(position, gwo_position, blend, velocity, period):
    return _fold(blend * gwo_position + (1.0 - blend) * (position + velocity), period)


def inject_mutation(particles, sigma, rng, period):
    for particle in particles:
        jolt = rng.normal(0.0, sigma, particle.position.shape[0])
        particle.position = _fold(particle.position + jolt, period)


def _cascade(state, position, fit):
    if fit < state.alpha_fitness:
        state.delta, state.delta_fitness = state.beta_wolf, state.beta_fitness
        state.beta_wolf, state.beta_fitness = state.alpha, state.alpha_fitness
        state.alpha, state.alpha_fitness = position.copy(), fit
    elif fit < state.beta_fitness:
        state.delta, state.delta_fitness = state.beta_wolf, state.beta_fitness
        state.beta_wolf, state.beta_fitness = position.copy(), fit
    elif fit < state.delta_fitness:
        state.delta, state.delta_fitness = position.copy(), fit


def initialize_swarm(etc, config, rng, seeded_positions=None):
    n, m = etc.n, etc.m
    seeded = seeded_positions or []
    threshold = capacity_threshold(etc, config.headroom_theta)
    particles = []
    best_fit, best_index, best_assignment = math.inf, -1, None
    evaluations = []
    for i in range(config.swarm_size):
        position = seeded[i].copy() if i < len(seeded) else rng.uniform(0.0, m, n)
        assignment, loads = map_with_loads(position, etc, threshold)
        fit = scalar_report(loads, etc.n, config.beta).fitness
        particles.append(RefParticle(position, np.zeros(n), position.copy(), fit))
        evaluations.append((position, fit))
        if fit < best_fit:
            best_fit, best_index, best_assignment = fit, i, assignment
    best = particles[best_index].position
    state = RefState(
        particles=particles,
        global_best_position=best.copy(),
        global_best_fitness=best_fit,
        global_best_assignment=best_assignment,
        alpha=best.copy(),
        beta_wolf=best.copy(),
        delta=best.copy(),
    )
    for position, fit in evaluations:
        _cascade(state, position, fit)
    if not math.isfinite(state.beta_fitness):
        state.beta_wolf, state.beta_fitness = state.alpha.copy(), state.alpha_fitness
    if not math.isfinite(state.delta_fitness):
        state.delta, state.delta_fitness = state.beta_wolf.copy(), state.beta_fitness
    return state


def step(state, etc, config, rng, log):
    t = state.iteration + 1
    m = etc.m
    threshold = capacity_threshold(etc, config.headroom_theta)
    distances = pdist(np.stack([p.position for p in state.particles]))
    diversity = float(np.add.reduce(distances) / distances.size)
    mutated = False
    if diversity < config.d_min:
        sigma = max(0.1 * m * (1.0 - diversity / config.d_min), 0.01 * m)
        inject_mutation(state.particles, sigma, rng, m)
        mutated = True
    lam = blend_weight(t, config)
    a = gwo_coefficient_a(t, config)

    evaluations = []
    for particle in state.particles:
        # a rule the run never weights is not drawn for; its stand-in enters
        # the blend at weight 0
        guide = particle.position
        if config.lambda_max > 0:
            guide = gwo_guidance(
                particle.position, state.alpha, state.beta_wolf, state.delta, a, rng, m
            )
        velocity = particle.velocity
        if config.lambda_min < 1:
            velocity = velocity_update(particle, state.global_best_position, config, rng, m)
        position = combined_update(particle.position, guide, lam, velocity, m)
        particle.velocity = velocity
        particle.position = position
        assignment, loads = map_with_loads(position, etc, threshold)
        fit = scalar_report(loads, etc.n, config.beta).fitness
        evaluations.append((position, fit, assignment))

    for particle, (position, fit, assignment) in zip(state.particles, evaluations):
        if fit < particle.personal_best_fitness:
            particle.personal_best_fitness = fit
            particle.personal_best_position = position.copy()
            if fit < state.global_best_fitness:
                state.global_best_fitness = fit
                state.global_best_position = position.copy()
                state.global_best_assignment = assignment
        _cascade(state, position, fit)
    state.iteration = t
    log.rows.append(
        IterationStats(
            iteration=t,
            best_fitness=state.global_best_fitness,
            mean_fitness=float(np.mean([fit for _, fit, _ in evaluations])),
            diversity=diversity,
            blend_weight=lam,
            gwo_a=a,
            mutated=mutated,
        )
    )
    return state


def run(workload, vms, config, *, seeded_positions=None):
    etc = build_etc(workload, vms)
    cfg = config.resolve(etc)
    rng = np.random.default_rng(cfg.seed)
    state = initialize_swarm(etc, cfg, rng, seeded_positions)
    log = ConvergenceLog()
    for _ in range(cfg.max_iterations):
        step(state, etc, cfg, rng, log)
    report = scalar_report(load_vector(state.global_best_assignment, etc), etc.n, cfg.beta)
    return state.global_best_assignment.copy(), report, log


def pin_pure(config, weight):
    """The ablations' config: blend pinned to weight, mutation off."""
    return replace(config, lambda_max=weight, lambda_min=weight, d_min=0.0)
