"""Domain types and the base firefly algorithm.

The search loop per generation: refresh the randomization scale, evaluate
the population, sort it by fitness, reconcile the best-so-far, then sweep
attraction moves (each firefly moves toward every strictly brighter peer).
Minimization convention throughout; light intensity is the negated fitness.

Distances that feed the attractiveness kernel are measured in normalized
coordinates (each dimension mapped to unit width), so the absorption
coefficient gamma keeps the same meaning across problems of different
scale.  Random steps are scaled per dimension by the domain width.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .randomization import ScheduleDescriptor, alpha_at, gaussian_step, uniform_centered_step

# epsilon_kind -> random-step source (signature: rng, n -> vector)
_EPSILON_STEPS = {"gaussian": gaussian_step, "uniform_centered": uniform_centered_step}
EPSILON_KINDS = tuple(_EPSILON_STEPS)
UPDATE_SCHEMES = ("asynchronous", "synchronous")


class EvaluationError(RuntimeError):
    """The objective produced a non-finite value (NaN or +-inf); the run cannot continue meaningfully."""


@dataclass
class Firefly:
    """One candidate solution: a position, its fitness, and its brightness."""

    position: np.ndarray
    fitness: float = math.nan
    intensity: float = math.nan

    def copy(self) -> "Firefly":
        return Firefly(self.position.copy(), self.fitness, self.intensity)


@dataclass(frozen=True)
class FaParams:
    """Control parameters of a run.

    alpha is the random-step scale as a fraction of the per-dimension
    domain width; beta0 the attractiveness at distance zero; gamma the
    light absorption coefficient in normalized coordinates (useful range
    roughly 0.1 to 10).  The evaluation budget max_fes counts objective
    calls, not generations.

    When an explicit alpha_schedule is supplied, its alpha0 governs the
    run; otherwise a geometric decay schedule with ratio 0.97 is built
    from alpha.
    """

    alpha: float = 0.2
    beta0: float = 1.0
    gamma: float = 1.0
    pop_size: int = 25
    max_fes: int = 50_000
    epsilon_kind: str = "gaussian"
    update_scheme: str = "asynchronous"
    alpha_schedule: Optional[ScheduleDescriptor] = None
    elitism: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta0 < 0:
            raise ValueError(f"beta0 must be >= 0, got {self.beta0}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.pop_size < 1:
            raise ValueError(f"pop_size must be >= 1, got {self.pop_size}")
        if self.max_fes < self.pop_size:
            raise ValueError(
                f"max_fes ({self.max_fes}) must cover at least one evaluation pass ({self.pop_size})"
            )
        if self.epsilon_kind not in EPSILON_KINDS:
            raise ValueError(f"unknown epsilon_kind {self.epsilon_kind!r}; expected one of {EPSILON_KINDS}")
        if self.update_scheme not in UPDATE_SCHEMES:
            raise ValueError(f"unknown update_scheme {self.update_scheme!r}; expected one of {UPDATE_SCHEMES}")
        if self.alpha_schedule is None:
            object.__setattr__(
                self, "alpha_schedule", ScheduleDescriptor(kind="geometric", alpha0=self.alpha, ratio=0.97)
            )


@dataclass(frozen=True)
class Objective:
    """A black-box function over a box domain, minimization convention.

    known_optimum, when present, is a (position, value) pair that the
    function must reproduce to within 1e-9.  change_hook carries the
    mutable dynamics state of a time-varying objective (None for static
    ones).
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    eval: Callable[[np.ndarray], float]
    known_optimum: Optional[tuple[np.ndarray, float]] = None
    change_hook: Optional[object] = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError(f"bounds must have shape ({self.dim},)")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError(f"bounds must be finite, got lower={lower.tolist()} upper={upper.tolist()}")
        if not np.all(lower < upper):
            raise ValueError("invalid bounds: lower must be strictly below upper in every dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.known_optimum is not None:
            pos = np.asarray(self.known_optimum[0], dtype=float)
            val = float(self.known_optimum[1])
            object.__setattr__(self, "known_optimum", (pos, val))
            actual = float(self.eval(pos))
            if not abs(actual - val) <= 1e-9:
                raise ValueError(
                    f"known optimum does not validate: eval gives {actual!r}, declared {val!r}"
                )

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass
class SwarmState:
    """Population, counters, best-so-far, and the run's random stream."""

    fireflies: list[Firefly]
    t: int
    fes_used: int
    best: Optional[Firefly]
    rng: np.random.Generator


@dataclass
class RunReport:
    """Per-generation best-so-far trace plus the final solution.

    trace rows are (generation, fes_used, best_fitness).  wall_time is
    informational only and never serialized, so emitted artifacts stay
    byte-reproducible.
    """

    trace: list[tuple[int, int, float]]
    final_best: Firefly
    fes_total: int
    seed: int
    wall_time: float = 0.0


def intensity_at(i0: float, gamma: float, r: float) -> float:
    """Perceived light intensity at distance r from a source of intensity i0."""
    if r < 0:
        raise ValueError(f"distance must be >= 0, got {r}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return i0 * math.exp(-gamma * r * r)


def attractiveness(beta0: float, gamma: float, r: float) -> float:
    """Attraction exerted across distance r, beta0 at distance zero."""
    if r < 0:
        raise ValueError(f"distance must be >= 0, got {r}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return beta0 * math.exp(-gamma * r * r)


def distance(si: Sequence[float], sj: Sequence[float]) -> float:
    """Euclidean distance between two positions."""
    a = np.asarray(si, dtype=float)
    b = np.asarray(sj, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def fitness_to_intensity(fitness: float) -> float:
    """Brightness of a solution: lower fitness shines brighter."""
    return -fitness


def _draw_eps_rows(rng, rows, dim, kind, eps_fn):
    if rows == 0:
        return []
    draw = _EPSILON_STEPS[kind] if eps_fn is None else eps_fn
    return np.asarray(draw(rng, rows * dim), dtype=float).reshape(rows, dim).tolist()


def checked_eval(objective: Objective, position: np.ndarray) -> float:
    """objective.eval at position as a float; NaN or +-inf raises EvaluationError."""
    value = float(objective.eval(position))
    if not math.isfinite(value):
        raise EvaluationError(f"objective returned {value} at position {position.tolist()}")
    return value


def move_firefly(
    si: Firefly,
    sj: Firefly,
    params: FaParams,
    domain_width: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One attraction move of si toward a brighter sj.

    Returns si.position + beta0 * exp(-gamma * r^2) * (sj - si) + alpha * eps,
    where r is the normalized distance and eps is drawn per epsilon_kind and
    scaled elementwise by the domain width.  The caller clamps to bounds.
    """
    if si.position.shape != sj.position.shape:
        raise ValueError(f"dimension mismatch: {si.position.shape} vs {sj.position.shape}")
    w = np.asarray(domain_width, dtype=float)
    diff = sj.position - si.position
    nd = diff / w
    beta = params.beta0 * math.exp(-params.gamma * float(nd @ nd))
    eps = np.asarray(_draw_eps_rows(rng, 1, si.position.size, params.epsilon_kind, None)[0])
    return si.position + beta * diff + params.alpha * eps * w


def initialize(objective: Objective, params: FaParams, seed) -> SwarmState:
    """Fresh swarm with positions drawn uniformly inside the bounds.

    The same seed always reproduces the same state bit for bit.  Fitness
    stays unset (NaN) until the first evaluation pass.
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform(objective.lower, objective.upper, size=(params.pop_size, objective.dim))
    fireflies = [Firefly(position=pos[i].copy()) for i in range(params.pop_size)]
    return SwarmState(fireflies=fireflies, t=0, fes_used=0, best=None, rng=rng)


def evaluate(state: SwarmState, objective: Objective, params: FaParams) -> SwarmState:
    """Refresh fitness and intensity, spending at most the remaining budget.

    When fewer evaluations remain than fireflies, only the leading part of
    the population is refreshed and the budget is exhausted, which ends
    the run.
    """
    remaining = params.max_fes - state.fes_used
    n = min(len(state.fireflies), remaining)
    for fly in state.fireflies[:n]:
        value = checked_eval(objective, fly.position)
        fly.fitness = value
        fly.intensity = fitness_to_intensity(value)
        if state.best is None or value < state.best.fitness:
            state.best = fly.copy()
    state.fes_used += n
    return state


def order(state: SwarmState) -> SwarmState:
    """Sort fireflies ascending by fitness; ties keep their relative order."""
    if any(math.isnan(f.fitness) for f in state.fireflies):
        raise ValueError("cannot order an unevaluated population")
    state.fireflies.sort(key=lambda f: f.fitness)
    return state


def find_best(state: SwarmState) -> Firefly:
    """Copy of the current generation's best firefly; reconciles best-so-far."""
    if not state.fireflies:
        raise ValueError("empty population")
    current = min(state.fireflies, key=lambda f: f.fitness)
    if state.best is None or current.fitness < state.best.fitness:
        state.best = current.copy()
    return current.copy()


def pairwise_sweep(
    state: SwarmState,
    objective: Objective,
    params: FaParams,
    alpha_t: float,
    best_move: Optional[Callable] = None,
    eps_fn: Optional[Callable] = None,
) -> None:
    """Movement phase over an evaluated, sorted population.

    Every firefly moves toward each strictly brighter peer in index order,
    clamped to bounds after each move.  Under the asynchronous scheme the
    updated positions are immediately visible inside the sweep; under the
    synchronous scheme all attraction terms read the start-of-generation
    snapshot and positions are clamped once, after accumulation.

    A firefly with no brighter peer takes a plain alpha-scaled random step,
    unless elitism is on, in which case it holds position and the optional
    best_move hook may probe improving directions for the brightest one.

    eps_fn overrides the random-step source (signature: rng, n -> vector);
    by default steps follow params.epsilon_kind.  The inner loops run on
    plain Python floats: this is the hot path of every run.
    """
    flies = state.fireflies
    pop = len(flies)
    dim = objective.dim
    lo = objective.lower.tolist()
    hi = objective.upper.tolist()
    width = [h - l for l, h in zip(lo, hi)]
    inv_w = [1.0 / wd for wd in width]
    aw = [alpha_t * wd for wd in width]
    fit = [f.fitness for f in flies]
    # After sorting, the strictly brighter peers of firefly i are exactly
    # the prefix before its tie group.
    counts = [bisect_left(fit, fit[i]) for i in range(pop)]
    walkers = 0 if params.elitism else sum(1 for c in counts if c == 0)
    eps = _draw_eps_rows(state.rng, sum(counts) + walkers, dim, params.epsilon_kind, eps_fn)

    pos = [f.position.tolist() for f in flies]
    synchronous = params.update_scheme == "synchronous"
    snap = [row[:] for row in pos] if synchronous else None
    elitism = params.elitism
    gamma = params.gamma
    beta0 = params.beta0
    exp = math.exp
    dims = range(dim)
    diff = [0.0] * dim
    k = 0

    for i in range(pop):
        ci = counts[i]
        pi = pos[i]
        if ci == 0:
            if elitism:
                continue
            ek = eps[k]
            k += 1
            for d in dims:
                v = pi[d] + aw[d] * ek[d]
                if v < lo[d]:
                    v = lo[d]
                elif v > hi[d]:
                    v = hi[d]
                pi[d] = v
        elif synchronous:
            si = snap[i]
            acc = [0.0] * dim
            for j in range(ci):
                sj = snap[j]
                r2 = 0.0
                for d in dims:
                    dd = sj[d] - si[d]
                    diff[d] = dd
                    nd = dd * inv_w[d]
                    r2 += nd * nd
                beta = beta0 * exp(-gamma * r2)
                ek = eps[k]
                k += 1
                for d in dims:
                    acc[d] += beta * diff[d] + aw[d] * ek[d]
            for d in dims:
                v = si[d] + acc[d]
                if v < lo[d]:
                    v = lo[d]
                elif v > hi[d]:
                    v = hi[d]
                pi[d] = v
        else:
            for j in range(ci):
                pj = pos[j]
                r2 = 0.0
                for d in dims:
                    dd = pj[d] - pi[d]
                    diff[d] = dd
                    nd = dd * inv_w[d]
                    r2 += nd * nd
                beta = beta0 * exp(-gamma * r2)
                ek = eps[k]
                k += 1
                for d in dims:
                    v = pi[d] + beta * diff[d] + aw[d] * ek[d]
                    if v < lo[d]:
                        v = lo[d]
                    elif v > hi[d]:
                        v = hi[d]
                    pi[d] = v

    for fly, row in zip(flies, pos):
        fly.position = np.asarray(row, dtype=float)

    if params.elitism and best_move is not None:
        best_move(state, objective, params, alpha_t)


def step(
    state: SwarmState,
    objective: Objective,
    params: FaParams,
    sweep: Optional[Callable] = None,
    best_move: Optional[Callable] = None,
) -> SwarmState:
    """One generation: schedule alpha, evaluate, sort, track best, move.

    The movement phase is skipped once the budget is exhausted (its result
    could never be evaluated).  A custom sweep replaces the pairwise
    attraction while keeping the rest of the generation structure.
    """
    if state.fes_used >= params.max_fes:
        raise ValueError("evaluation budget already exhausted")
    alpha_t = alpha_at(params.alpha_schedule, state.t)
    evaluate(state, objective, params)
    order(state)
    find_best(state)
    if state.fes_used < params.max_fes:
        if sweep is None:
            pairwise_sweep(state, objective, params, alpha_t, best_move=best_move)
        else:
            sweep(state, objective, params, alpha_t)
    state.t += 1
    return state


def run(
    objective: Objective,
    params: FaParams,
    seed: int,
    sweep: Optional[Callable] = None,
    best_move: Optional[Callable] = None,
) -> RunReport:
    """Full search: step until the evaluation budget is spent.

    The (objective, params, seed) triple fully determines the report.
    """
    started = time.perf_counter()
    state = initialize(objective, params, seed)
    trace: list[tuple[int, int, float]] = []
    while state.fes_used < params.max_fes:
        step(state, objective, params, sweep=sweep, best_move=best_move)
        trace.append((state.t - 1, state.fes_used, state.best.fitness))
    return RunReport(
        trace=trace,
        final_best=state.best.copy(),
        fes_total=state.fes_used,
        seed=seed,
        wall_time=time.perf_counter() - started,
    )
