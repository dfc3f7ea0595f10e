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
    _evaluate_swarms,
    _record,
    _rows_left,
    checked_rows,
    initialize,
    pull_rows,
    random_positions,
    step,  # not called here, but perfbench/probe.py patches variants.step
    step_swarms,
)
from .randomization import alpha_at  # not called here, but perfbench/probe.py patches variants.alpha_at

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
    return SentinelSet(positions=random_positions(np.random.default_rng(seed), objective, count))


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
    alpha: float,
) -> SwarmState:
    """Probe m random directions from the brightest firefly, keep the best improvement.

    Directions are uniform on the sphere, displacement alpha (the caller's
    alpha_t) times the domain width; a zero direction draw is dropped.  The
    trials go to one checked_rows call, and the first strict minimum below
    the brightest firefly's fitness wins.  If no trial improves, the
    brightest firefly stays where it is.  The m trials are cut to the
    remaining budget (core._rows_left) and, once evaluated, charged and
    recorded as swarm rows are (core._record), so an objective that raises
    leaves fes_used and the best-so-far as they were.  An unevaluated
    population raises ValueError.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if np.isnan(state.fitness).any():
        raise ValueError("population must be evaluated before an elitist move")
    trials = _rows_left(state, params, m)
    if trials == 0:
        return state
    i = int(np.argmin(state.fitness))
    w = objective.width
    dirs = state.rng.standard_normal((trials, objective.dim))
    norms = np.array([float(np.linalg.norm(u)) for u in dirs])
    if not norms.all():
        dirs, norms = dirs[norms != 0.0], norms[norms != 0.0]
    points = state.positions[i] + alpha * w * (dirs / norms[:, None])
    np.clip(points, objective.lower, objective.upper, out=points)
    values = checked_rows(objective, points)
    _record(state, points, values)
    winner = min(values, default=math.inf)
    if winner < state.fitness[i]:
        state.positions[i] = points[values.index(winner)]
        state.fitness[i] = winner
    return state


def global_best_pull_step(
    state: SwarmState,
    objective: Objective,
    params: FaParams,
    alpha: float,
) -> SwarmState:
    """Move every firefly toward the best-so-far with a Gaussian random step.

    Update: s_i + beta0 * exp(-gamma * r^2) * (g - s_i) + alpha * eps * width,
    with r the normalized distance to the best-so-far g (core.pull_rows
    over the whole population) and alpha the caller's alpha_t.  With
    gamma = 0 this is the accelerated-particle-swarm special case.
    """
    if state.best is None:
        raise ValueError("population must be evaluated before a pull step")
    eps = state.rng.standard_normal(state.positions.shape)
    pos = pull_rows(state.positions, state.best.position, params, alpha, eps, objective.width)
    state.positions = np.clip(pos, objective.lower, objective.upper, out=pos)
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


def _pair_distances(points: np.ndarray, objective: Objective) -> np.ndarray:
    """(..., k, k) normalized distances between the rows of each (k, d) block of points.

    A NaN row gives NaN distances.  Entry (i, j) equals
    float(np.linalg.norm(p_i - p_j)) on the normalized points bit for bit:
    the stacked matmul reduces each difference row with the same dot product
    that norm uses, where einsum and (v * v).sum(-1) round differently.
    """
    pts = (points - objective.lower) / objective.width
    v = pts[..., :, None, :] - pts[..., None, :, :]
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _exclusion_victims(bests: list[Optional[Firefly]], objective: Objective, radius: float) -> set[int]:
    """Indices of the swarms to re-randomize, pairs taken in (i, j) order.

    Of two swarms whose bests lie within radius of each other the worse one
    (j on a fitness tie) is chosen; a swarm already chosen, or without a
    best (a NaN row, never within radius), takes part in no further pair.
    """
    missing = np.full(objective.dim, math.nan)
    gaps = _pair_distances(np.array([missing if b is None else b.position for b in bests]), objective).tolist()
    victims: set[int] = set()
    for i in range(len(bests)):
        for j in range(i + 1, len(bests)):
            if i not in victims and j not in victims and gaps[i][j] < radius:
                victims.add(j if bests[j].fitness >= bests[i].fitness else i)
    return victims


def _rerandomize(swarm: SwarmState, objective: Objective) -> None:
    swarm.positions = random_positions(swarm.rng, objective, len(swarm.fitness))
    swarm.fitness = np.full(len(swarm.fitness), math.nan)
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
    """Swarms whose random streams are disjoint among themselves.

    Swarm k draws from SeedSequence(seed).spawn(num_swarms)[k], spawn key
    (k,).  Streams that other consumers seed from the same entropy with a
    fixed key are not disjoint from these: harness.build_objective's
    moving-peaks landscape (key (2,)) and run_multiswarm's sentinels (key
    (3,)) share swarm 2's and swarm 3's streams.

    Sentinel probe k is charged to swarm k mod num_swarms, so each swarm
    pays at least sentinel_count // num_swarms probes a generation.  When
    that reaches max_fes, no swarm would evaluate a row, and ValueError is
    raised, as it is for a layout that does not fill pop_size.
    """
    if config.num_swarms * config.swarm_size != params.pop_size:
        raise ValueError(
            f"num_swarms * swarm_size must equal pop_size "
            f"({config.num_swarms} * {config.swarm_size} != {params.pop_size})"
        )
    probes = config.sentinel_count // config.num_swarms
    if probes >= params.max_fes:
        raise ValueError(
            f"sentinel_count ({config.sentinel_count}) charges each of the num_swarms ({config.num_swarms}) "
            f"swarms at least {probes} probes a generation, which use up max_fes ({params.max_fes}) before any swarm "
            "evaluates a row"
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
    the change, so an improving shift is caught too).  On detection all
    rows are re-evaluated (core._evaluate_swarms, not cut to the budget),
    each swarm's best rebuilt from them alone, and the sentinel references
    re-baselined, so the rest of the generation works on valid data.  Every
    swarm with budget left then runs the generation that core.step runs on
    one swarm, all of them in one core.step_swarms call (one evaluation
    call, one argsort, one sweep).  Exclusion re-randomizes the worse of
    two swarms whose bests fall within exclusion_radius of each other;
    anti-convergence re-randomizes the globally worst swarm once every
    swarm has collapsed below the anticonvergence_radius diameter.  Swarms
    must be of equal size, as initialize_multiswarm makes them (step_swarms
    raises ValueError otherwise): the step and all diameters work on the
    swarms' stacked positions.  Two swarms whose generators share a seed
    sequence (entropy and spawn key, as one pool) raise ValueError first.
    """
    seeds = [swarm.rng.bit_generator.seed_seq.pool.tobytes() for swarm in swarms]
    for i in range(len(swarms)):
        for j in range(i + 1, len(swarms)):
            if seeds[i] == seeds[j]:
                raise ValueError(f"swarms {i} and {j} share an identical random stream")

    fresh = _probe_sentinels(sentinels, swarms, objective)
    if sentinels.values is None:
        sentinels.values = fresh
    elif np.any(np.abs(fresh - sentinels.values) > CHANGE_TOLERANCE):
        for swarm in swarms:
            swarm.best = None
        _evaluate_swarms(swarms, objective, [len(swarm.fitness) for swarm in swarms])
        # re-baseline the probes after the invalidation pass, so the
        # references are wholly post-change even when the shift landed
        # mid-way through the probe loop above
        sentinels.values = _probe_sentinels(sentinels, swarms, objective)
        if log is not None:
            log.append({"event": "change"})

    step_swarms(swarms, objective, params)

    # Exclusion: the better of an overlapping pair keeps its ground.
    bests = [s.best for s in swarms]
    victims = _exclusion_victims(bests, objective, config.exclusion_radius)
    for idx in victims:
        _rerandomize(swarms[idx], objective)
        if log is not None:
            log.append({"event": "exclusion", "swarm": idx})

    # Anti-convergence: when everything has collapsed, re-diversify the worst
    # (only when no swarm was re-randomized above, so bests is still current).
    if len(swarms) > 1 and not victims and all(b is not None for b in bests):
        diameters = _pair_distances(np.stack([s.positions for s in swarms]), objective).max(axis=(1, 2))
        if (diameters < config.anticonvergence_radius).all():
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
