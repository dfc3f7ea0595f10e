"""Published variant mechanisms, composable over the base algorithm.

Includes the elitist probing move for the brightest firefly, the
global-best pull update, preset reductions that turn the base update into
simulated-annealing-, differential-evolution-, and particle-swarm-like
special cases, a multi-swarm scheme for changing landscapes, and a
penalty wrapper for constrained problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    FaParams,
    Firefly,
    Objective,
    SwarmState,
    checked_rows,
    initialize,
    pull_rows,
    random_fireflies,
    step,
)
from .randomization import alpha_at

REDUCTION_MODES = ("sa_like", "de_like", "pso_like")

# Fitness drift beyond this at an unchanged position means the landscape moved.
CHANGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MultiSwarmConfig:
    """Layout and interaction radii of a multi-swarm run.

    Radii are in normalized coordinates (domain mapped to the unit box).
    sentinel_count fixed probe positions (see make_sentinels) are
    re-evaluated each step to detect landscape changes.
    """

    num_swarms: int
    swarm_size: int
    exclusion_radius: float
    anticonvergence_radius: float
    sentinel_count: int = 1

    def __post_init__(self):
        if self.num_swarms < 1:
            raise ValueError(f"num_swarms must be >= 1, got {self.num_swarms}")
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be >= 1, got {self.swarm_size}")
        for name in ("exclusion_radius", "anticonvergence_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.sentinel_count < 0:
            raise ValueError(f"sentinel_count must be >= 0, got {self.sentinel_count}")


@dataclass
class SentinelSet:
    """Fixed probe positions whose objective values should never drift.

    values holds the cached reference evaluations; it is filled on first
    use and refreshed whenever a landscape change is detected.
    """

    positions: np.ndarray
    values: Optional[np.ndarray] = None


def make_sentinels(objective: Objective, count: int, seed) -> SentinelSet:
    """Uniformly placed sentinel probes for change detection."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(objective.lower, objective.upper, size=(count, objective.dim))
    return SentinelSet(positions=positions)


@dataclass(frozen=True)
class PenaltySpec:
    """Inequality constraints g(x) <= 0 folded into the objective as penalties."""

    constraints: tuple[Callable[[np.ndarray], float], ...]
    weight: float = 1e3
    exponent: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be finite and > 0, got {self.weight}")
        if not (math.isfinite(self.exponent) and self.exponent >= 1):
            raise ValueError(f"exponent must be finite and >= 1, got {self.exponent}")


def elitist_best_move(
    state: SwarmState,
    m: int,
    params: FaParams,
    objective: Objective,
    alpha: Optional[float] = None,
) -> SwarmState:
    """Probe m random directions from the brightest firefly, keep the best improvement.

    Directions are uniform on the sphere, displacement alpha times the
    domain width; a zero direction draw is dropped.  The trials go to one
    checked_rows call, and the first strict minimum below the brightest
    firefly's fitness wins.  If no trial improves, the brightest firefly
    stays where it is.  Consumes up to m evaluations, never exceeding the
    remaining budget.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    trials = min(m, params.max_fes - state.fes_used)
    if trials <= 0:
        return state
    best = min(state.fireflies, key=lambda f: f.fitness)
    if alpha is None:
        alpha = alpha_at(params.alpha_schedule, state.t)
    w = objective.width
    dirs = state.rng.standard_normal((trials, objective.dim))
    norms = np.array([float(np.linalg.norm(u)) for u in dirs])
    keep = norms != 0.0
    points = best.position + alpha * w * (dirs[keep] / norms[keep, None])
    np.clip(points, objective.lower, objective.upper, out=points)
    state.fes_used += len(points)
    values = checked_rows(objective, points)
    winner = min(values, default=math.inf)
    if winner < best.fitness:
        best.position = points[values.index(winner)]
        best.fitness = winner
        if state.best is None or winner < state.best.fitness:
            state.best = best.copy()
    return state


def global_best_pull_step(
    state: SwarmState,
    objective: Objective,
    params: FaParams,
    alpha: Optional[float] = None,
) -> SwarmState:
    """Move every firefly toward the best-so-far with a Gaussian random step.

    Update: s_i + beta0 * exp(-gamma * r^2) * (g - s_i) + alpha * eps * width,
    with r the normalized distance to the best-so-far g (core.pull_rows
    over the whole population).  With gamma = 0 this is the
    accelerated-particle-swarm special case.
    """
    if state.best is None:
        raise ValueError("population must be evaluated before a pull step")
    if alpha is None:
        alpha = alpha_at(params.alpha_schedule, state.t)
    flies = state.fireflies
    w = objective.width
    eps = state.rng.standard_normal((len(flies), objective.dim))
    pos = pull_rows(np.array([fly.position for fly in flies]), state.best.position, params, alpha, eps, w)
    np.clip(pos, objective.lower, objective.upper, out=pos)
    for fly, row in zip(flies, pos):
        fly.position = row
    return state


def reduction_mode(name: str, base: Optional[FaParams] = None, seed: Optional[int] = None) -> FaParams:
    """Parameter preset collapsing the base update into a simpler known method.

    sa_like zeroes the attraction so only the scheduled random walk remains;
    de_like removes absorption and draws beta0 once per run from U(0,1)
    (seed required, stream decorrelated from the run's own stream);
    pso_like removes absorption and is meant to be paired with
    global_best_pull_step as the movement rule.
    """
    if name not in REDUCTION_MODES:
        raise ValueError(f"unknown reduction mode {name!r}; expected one of {REDUCTION_MODES}")
    params = base if base is not None else FaParams()
    if name == "sa_like":
        return replace(params, beta0=0.0)
    if name == "de_like":
        if seed is None:
            raise ValueError("de_like draws beta0 once per run and needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        return replace(params, gamma=0.0, beta0=float(rng.uniform()))
    return replace(params, gamma=0.0)


def _normalized(position: np.ndarray, objective: Objective) -> np.ndarray:
    return (position - objective.lower) / objective.width


def _pair_distances(positions: list[Optional[np.ndarray]], objective: Objective) -> np.ndarray:
    """(k, k) normalized distances between positions; a None position gives NaNs.

    Entry (i, j) equals float(np.linalg.norm(p_i - p_j)) on the normalized
    points bit for bit: the stacked matmul reduces each difference row with
    the same dot product that norm uses, where einsum and (v * v).sum(-1)
    round differently.
    """
    rows = [np.full(objective.dim, math.nan) if p is None else p for p in positions]
    pts = _normalized(np.array(rows).reshape(len(rows), objective.dim), objective)
    v = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _swarm_diameter(swarm: SwarmState, objective: Objective) -> float:
    return float(_pair_distances([f.position for f in swarm.fireflies], objective).max())


def _exclusion_victims(bests: list[Optional[Firefly]], objective: Objective, radius: float) -> set[int]:
    """Indices of the swarms to re-randomize, pairs taken in (i, j) order.

    Of two swarms whose bests lie within radius of each other the worse one
    (j on a fitness tie) is chosen; a swarm already chosen or without a
    best takes part in no further pair.
    """
    gaps = _pair_distances([None if b is None else b.position for b in bests], objective).tolist()
    victims: set[int] = set()
    for i in range(len(bests)):
        for j in range(i + 1, len(bests)):
            bi, bj = bests[i], bests[j]
            if bi is None or bj is None or i in victims or j in victims:
                continue
            if gaps[i][j] < radius:
                victims.add(j if bj.fitness >= bi.fitness else i)
    return victims


def _rerandomize(swarm: SwarmState, objective: Objective) -> None:
    swarm.fireflies = random_fireflies(swarm.rng, objective, len(swarm.fireflies))
    swarm.best = None


def _probe_sentinels(sentinels: SentinelSet, swarms: list[SwarmState], objective: Objective) -> np.ndarray:
    """Evaluate every sentinel, charging probe k to swarm k mod len(swarms)."""
    for k in range(len(sentinels.positions)):
        swarms[k % len(swarms)].fes_used += 1
    return np.array(checked_rows(objective, sentinels.positions), dtype=float)


def initialize_multiswarm(
    objective: Objective,
    params: FaParams,
    config: MultiSwarmConfig,
    seed: int,
) -> list[SwarmState]:
    """Independent swarms with provably disjoint random streams."""
    if config.num_swarms * config.swarm_size != params.pop_size:
        raise ValueError(
            f"num_swarms * swarm_size must equal pop_size "
            f"({config.num_swarms} * {config.swarm_size} != {params.pop_size})"
        )
    half_diag = 0.5 * math.sqrt(objective.dim)
    if config.exclusion_radius >= half_diag:
        raise ValueError(
            f"exclusion_radius {config.exclusion_radius} must be below half the "
            f"normalized domain diagonal ({half_diag:.4g})"
        )
    swarm_params = replace(params, pop_size=config.swarm_size)
    children = np.random.SeedSequence(seed).spawn(config.num_swarms)
    return [initialize(objective, swarm_params, child) for child in children]


def multiswarm_step(
    swarms: list[SwarmState],
    config: MultiSwarmConfig,
    objective: Objective,
    params: FaParams,
    sentinels: SentinelSet,
    log: Optional[list] = None,
) -> list[SwarmState]:
    """One generation of every swarm plus the interaction operators.

    The sentinel phase runs first: the fixed sentinel positions are
    re-evaluated, and a drift beyond CHANGE_TOLERANCE from their cached
    values flags a landscape change (a cached reference always predates
    the change, so an improving shift is caught too).  On detection every
    cached fitness is invalidated, the whole population re-evaluated, each
    swarm's best rebuilt from the fresh values, and the sentinel references
    re-baselined, so the rest of the generation works on valid data.  Each
    swarm then performs one base-algorithm step.  Exclusion re-randomizes
    the worse of two swarms whose bests fall within exclusion_radius of
    each other; anti-convergence re-randomizes the globally worst swarm
    once every swarm has collapsed below the anticonvergence_radius
    diameter.
    """
    streams = [swarm.rng.bit_generator.state for swarm in swarms]
    for i in range(len(swarms)):
        for j in range(i + 1, len(swarms)):
            if streams[i] == streams[j]:
                raise ValueError(f"swarms {i} and {j} share an identical random stream")

    fresh = _probe_sentinels(sentinels, swarms, objective)
    if sentinels.values is None:
        sentinels.values = fresh
    elif np.any(np.abs(fresh - sentinels.values) > CHANGE_TOLERANCE):
        flies = [fly for swarm in swarms for fly in swarm.fireflies]
        for fly, value in zip(flies, checked_rows(objective, [fly.position for fly in flies])):
            fly.fitness = value
        for swarm in swarms:
            swarm.fes_used += len(swarm.fireflies)
            swarm.best = min(swarm.fireflies, key=lambda f: f.fitness).copy()
        # re-baseline the probes after the invalidation pass, so the
        # references are wholly post-change even when the shift landed
        # mid-way through the probe loop above
        sentinels.values = _probe_sentinels(sentinels, swarms, objective)
        if log is not None:
            log.append({"event": "change"})

    for swarm in swarms:
        if swarm.fes_used < params.max_fes:
            step(swarm, objective, params)

    # Exclusion: the better of an overlapping pair keeps its ground.
    bests = [s.best for s in swarms]
    victims = _exclusion_victims(bests, objective, config.exclusion_radius)
    for idx in victims:
        _rerandomize(swarms[idx], objective)
        if log is not None:
            log.append({"event": "exclusion", "swarm": idx})

    # Anti-convergence: when everything has collapsed, re-diversify the worst
    # (only when no swarm was re-randomized above, so bests is still current).
    if len(swarms) > 1 and not victims:
        if all(b is not None for b in bests) and all(
            _swarm_diameter(s, objective) < config.anticonvergence_radius for s in swarms
        ):
            worst = max(range(len(swarms)), key=lambda k: bests[k].fitness)
            _rerandomize(swarms[worst], objective)
            if log is not None:
                log.append({"event": "anticonvergence", "swarm": worst})
    return swarms


def penalty_wrap(objective: Objective, spec: PenaltySpec) -> Objective:
    """Objective with constraint violations added as a weighted penalty.

    Feasible points keep their raw value exactly; the further a point
    violates a constraint, the larger its penalized value.  The declared
    optimum survives only if it is feasible.
    """
    raw = objective.eval

    def penalized(x: np.ndarray) -> float:
        total = raw(x)
        for g in spec.constraints:
            violation = float(g(x))
            if violation > 0.0:
                total += spec.weight * violation**spec.exponent
        return total

    optimum = objective.known_optimum
    if optimum is not None and any(float(g(optimum[0])) > 0.0 for g in spec.constraints):
        optimum = None
    return Objective(
        dim=objective.dim,
        lower=objective.lower,
        upper=objective.upper,
        eval=penalized,
        known_optimum=optimum,
        change_hook=objective.change_hook,
    )
