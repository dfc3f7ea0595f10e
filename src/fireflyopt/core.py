"""Domain types and the base firefly algorithm.

The search loop per generation: refresh the randomization scale, evaluate
the population and reconcile the best-so-far, sort it by fitness, then sweep
attraction moves (each firefly moves toward every strictly brighter peer).
Minimization convention throughout: the brightest firefly has the lowest fitness.

Distances that feed the attractiveness kernel are measured in normalized
coordinates (each dimension mapped to unit width), so the absorption
coefficient gamma keeps the same meaning across problems of different
scale.  A Cartesian (paper) gamma g on a box of width w in every
dimension is engine gamma g * w**2.  Random steps are scaled per
dimension by the domain width.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Optional, Sequence

import numpy as np

from .randomization import ScheduleDescriptor, alpha_at, gaussian_step, uniform_centered_step

# epsilon_kind -> random-step source (signature: rng, n -> vector)
_EPSILON_STEPS = {"gaussian": gaussian_step, "uniform_centered": uniform_centered_step}
EPSILON_KINDS = tuple(_EPSILON_STEPS)
UPDATE_SCHEMES = ("asynchronous", "synchronous")
# pop * dim from which pairwise_sweep batches its moves across rows
# (_sweep_rows); below it the per-step numpy overhead outweighs the Python
# float operations it saves.  Measured crossover: see the README.
ROW_SWEEP_MIN_CELLS = 200


class EvaluationError(RuntimeError):
    """The objective produced a non-finite value (NaN or +-inf); the run cannot continue meaningfully."""


@dataclass
class Firefly:
    """One candidate solution: a position and its fitness."""

    position: np.ndarray
    fitness: float = math.nan

    def copy(self) -> "Firefly":
        return Firefly(self.position.copy(), self.fitness)


@dataclass(frozen=True)
class FaParams:
    """Control parameters of a run.

    alpha is the random-step scale as a fraction of the per-dimension
    domain width; beta0 the attractiveness at distance zero; gamma the
    light absorption coefficient in normalized coordinates (useful range
    roughly 0.1 to 10); a Cartesian (paper) gamma g on a box of width w
    in every dimension is engine gamma g * w**2.  The evaluation budget
    max_fes counts objective calls, not generations.

    When an explicit alpha_schedule is supplied, its alpha0 governs the
    run; otherwise a geometric decay schedule with ScheduleDescriptor's
    default ratio is built from alpha.
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
        for name in ("alpha", "beta0", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
            object.__setattr__(self, "alpha_schedule", ScheduleDescriptor(kind="geometric", alpha0=self.alpha))


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

    trace rows are (generation, fes_used, best_fitness).
    """

    trace: list[tuple[int, int, float]]
    final_best: Firefly
    fes_total: int
    seed: int


def intensity_at(i0: float, gamma: float, r: float) -> float:
    """Perceived light intensity at distance r from a source of intensity i0."""
    return attractiveness(i0, gamma, r)


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


def _draw_eps_rows(rng, rows, dim, kind, eps_fn) -> np.ndarray:
    """(rows, dim) random steps from eps_fn or the epsilon_kind source, in one draw."""
    if rows == 0:
        return np.empty((0, dim))
    draw = _EPSILON_STEPS[kind] if eps_fn is None else eps_fn
    return np.asarray(draw(rng, rows * dim), dtype=float).reshape(rows, dim)


# Row twins as (scalar function, twin) pairs, registered by benchmarks.py:
# a twin evaluates an (n, d) array of points in one call and gives, row for
# row, the bits of its function (and, for a landscape with state, the same
# state afterwards).  _row_twin matches objective.eval by identity, or a
# bound method by its __func__, with the twin bound to the same instance.
# So any wrapper of a registered function (a penalty closure, a tracing
# wrapper, a functools.wraps copy) and any subclass override keep the
# per-point path, and every call goes through the wrapper.
_ROW_TWINS: list[tuple[Callable, Callable]] = []


def _row_twin(fn: Callable) -> Optional[Callable]:
    func = getattr(fn, "__func__", fn)
    rows = next((rows for f, rows in _ROW_TWINS if f is func), None)
    if rows is None or func is fn:
        return rows
    return MethodType(rows, fn.__self__)


def checked_rows(objective: Objective, positions) -> list[float]:
    """objective.eval at n positions (an (n, d) array or n d-vectors), as floats.

    When objective.eval has a row twin (see _ROW_TWINS), the positions are
    stacked and go to one twin call; otherwise they go to objective.eval
    one by one, in order.  Both give the same values.  A non-finite value
    (NaN or +-inf) raises EvaluationError naming the first such position;
    on the per-point path no position after it is evaluated.
    """
    rows = _row_twin(objective.eval)
    if rows is None:
        values = map(float, map(objective.eval, positions))
    else:
        positions = np.asarray(positions, dtype=float).reshape(-1, objective.dim)
        values = rows(positions).tolist()
    checked = []
    for value in values:
        if not math.isfinite(value):
            raise EvaluationError(f"objective returned {value} at position {positions[len(checked)].tolist()}")
        checked.append(value)
    return checked


def pull_rows(
    positions: np.ndarray,
    target: np.ndarray,
    params: FaParams,
    alpha: float,
    eps: np.ndarray,
    width: np.ndarray,
) -> np.ndarray:
    """Every row of positions pulled toward target, with a random step.

    Row i becomes s_i + beta0 * exp(-gamma * r_i^2) * (target - s_i) +
    (alpha * eps_i) * width, with r_i the normalized distance.  r^2 stays
    one dot product per row and beta one math.exp per row, which keeps
    every bit of the one-pair formula (einsum, sum(axis=1) and np.exp do
    not).  The caller clamps to bounds.
    """
    diff = target - positions
    nd = diff / width
    beta = params.beta0 * np.array([math.exp(-params.gamma * float(r @ r)) for r in nd])
    return positions + beta[:, None] * diff + alpha * eps * width


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
    scaled elementwise by the domain width (pull_rows on one row).  The
    caller clamps to bounds.
    """
    if si.position.shape != sj.position.shape:
        raise ValueError(f"dimension mismatch: {si.position.shape} vs {sj.position.shape}")
    w = np.asarray(domain_width, dtype=float)
    eps = _draw_eps_rows(rng, 1, si.position.size, params.epsilon_kind, None)
    return pull_rows(si.position[None, :], sj.position, params, params.alpha, eps, w)[0]


def random_fireflies(rng: np.random.Generator, objective: Objective, n: int) -> list[Firefly]:
    """n fireflies drawn uniformly inside the bounds, fitness unset (NaN)."""
    pos = rng.uniform(objective.lower, objective.upper, size=(n, objective.dim))
    return [Firefly(position=row.copy()) for row in pos]


def initialize(objective: Objective, params: FaParams, seed) -> SwarmState:
    """Fresh swarm with positions drawn uniformly inside the bounds.

    The same seed always reproduces the same state bit for bit.  Fitness
    stays unset (NaN) until the first evaluation pass.
    """
    rng = np.random.default_rng(seed)
    fireflies = random_fireflies(rng, objective, params.pop_size)
    return SwarmState(fireflies=fireflies, t=0, fes_used=0, best=None, rng=rng)


def evaluate(state: SwarmState, objective: Objective, params: FaParams) -> SwarmState:
    """Refresh fitness, spending at most the remaining budget.

    When fewer evaluations remain than fireflies, only the leading part of
    the population is refreshed and the budget is exhausted, which ends
    the run.

    The refreshed positions are stacked and evaluated by checked_rows: in
    one call when objective.eval has a row twin, otherwise one by one.
    """
    remaining = params.max_fes - state.fes_used
    n = min(len(state.fireflies), remaining)
    flies = state.fireflies[:n]
    values = checked_rows(objective, [fly.position for fly in flies])
    for fly, value in zip(flies, values):
        fly.fitness = value
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
    eps_fn: Optional[Callable] = None,
) -> None:
    """Movement phase over an evaluated, sorted population.

    Every firefly moves toward each strictly brighter peer in index order,
    clamped to bounds after each move.  Under the asynchronous scheme the
    updated positions are immediately visible inside the sweep; under the
    synchronous scheme all attraction terms read the start-of-generation
    snapshot and positions are clamped once, after accumulation.

    A firefly with no brighter peer takes a plain alpha-scaled random step,
    unless elitism is on, in which case it holds position.

    eps_fn overrides the random-step source (signature: rng, n -> vector);
    by default steps follow params.epsilon_kind.

    Two implementations give the same positions and leave the random
    stream in the same state, bit for bit: _sweep_scalar runs the moves on
    plain Python floats, one firefly at a time; _sweep_rows makes the same
    moves in the same per-element order but batches each step across rows
    with numpy.  The row path is taken when pop * dim reaches
    ROW_SWEEP_MIN_CELLS.  Below that its per-step numpy overhead costs more
    than it saves, so the scalar loop stays for small shapes (the paper-scale
    ones) and serves as the row path's oracle in the tests.
    """
    if len(state.fireflies) * objective.dim >= ROW_SWEEP_MIN_CELLS:
        _sweep_rows(state, objective, params, alpha_t, eps_fn)
    else:
        _sweep_scalar(state, objective, params, alpha_t, eps_fn)


def _sweep_scalar(state, objective, params, alpha_t, eps_fn) -> None:
    """pairwise_sweep on plain Python floats: the hot path at small shapes."""
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
    eps = _draw_eps_rows(state.rng, sum(counts) + walkers, dim, params.epsilon_kind, eps_fn).tolist()

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


def _sweep_rows(state, objective, params, alpha_t, eps_fn) -> None:
    """pairwise_sweep batched across rows, bit for bit equal to _sweep_scalar.

    After sorting, the count c_i of strictly brighter peers is
    non-decreasing in i and c_i <= i, so row t is final once it has made its
    c_t moves.  The asynchronous sweep is therefore a wavefront: at step t
    every row with c_i > t (a suffix of the population) moves toward row t
    at once.  The synchronous sweep adds term j for every such row into an
    accumulator over the snapshot, in the same j order.  Each element sees
    the scalar loop's operations in the scalar loop's order: the random
    steps come from one draw, row (i, t) at the scalar loop's draw offset of
    i plus t; r^2 is summed in order along d; exp is math.exp, which
    np.exp does not match to the last ulp.
    """
    flies = state.fireflies
    dim = objective.dim
    lo = objective.lower
    hi = objective.upper
    width = hi - lo
    inv_w = 1.0 / width
    aw = alpha_t * width
    neg_gamma = -params.gamma
    beta0 = params.beta0
    pos = np.array([f.position for f in flies], dtype=float)
    fit = np.array([f.fitness for f in flies], dtype=float)
    counts = np.searchsorted(fit, fit, side="left")
    # rows before `first` have no brighter peer; starts[t] is the first row
    # with more than t of them
    first = int(np.searchsorted(counts, 0, side="right"))
    starts = np.searchsorted(counts, np.arange(counts[-1]), side="right").tolist()
    draws = np.where(counts == 0, 0 if params.elitism else 1, counts)
    offsets = np.cumsum(draws) - draws
    eps = _draw_eps_rows(state.rng, int(draws.sum()), dim, params.epsilon_kind, eps_fn)

    def clamp(v):
        return np.where(v < lo, lo, np.where(v > hi, hi, v))

    def attraction(target, rows):
        # beta * (target - rows) per row, as the scalar loop computes it
        diff = target - rows
        nd = diff * inv_w
        r2 = np.add.accumulate(nd * nd, axis=1)[:, -1]
        beta = beta0 * np.fromiter(map(math.exp, (neg_gamma * r2).tolist()), float, len(r2))
        return beta[:, None] * diff

    synchronous = params.update_scheme == "synchronous"
    if synchronous:
        acc = np.zeros((len(flies) - first, dim))
        for j, s in enumerate(starts):
            acc[s - first :] += attraction(pos[j], pos[s:]) + aw * eps[offsets[s:] + j]
        pos[first:] = clamp(pos[first:] + acc)
    # a walker reads only its own row, which the synchronous update leaves alone
    if not params.elitism:
        pos[:first] = clamp(pos[:first] + aw * eps[offsets[:first]])
    if not synchronous:
        for t, s in enumerate(starts):
            pos[s:] = clamp((pos[s:] + attraction(pos[t], pos[s:])) + aw * eps[offsets[s:] + t])

    for fly, row in zip(flies, pos):
        fly.position = row


def step(
    state: SwarmState,
    objective: Objective,
    params: FaParams,
    sweep: Optional[Callable] = None,
) -> SwarmState:
    """One generation: schedule alpha, evaluate and track best, sort, move.

    evaluate reconciles the best-so-far with each value it computes.  The
    movement phase is skipped once the budget is exhausted (its result
    could never be evaluated).  A custom sweep replaces the pairwise
    attraction while keeping the rest of the generation structure.
    """
    if state.fes_used >= params.max_fes:
        raise ValueError("evaluation budget already exhausted")
    alpha_t = alpha_at(params.alpha_schedule, state.t)
    evaluate(state, objective, params)
    order(state)
    if state.fes_used < params.max_fes:
        if sweep is None:
            pairwise_sweep(state, objective, params, alpha_t)
        else:
            sweep(state, objective, params, alpha_t)
    state.t += 1
    return state


def run(
    objective: Objective,
    params: FaParams,
    seed: int,
    sweep: Optional[Callable] = None,
) -> RunReport:
    """Full search: step until the evaluation budget is spent.

    The (objective, params, seed) triple fully determines the report.
    """
    state = initialize(objective, params, seed)
    trace: list[tuple[int, int, float]] = []
    while state.fes_used < params.max_fes:
        step(state, objective, params, sweep=sweep)
        trace.append((state.t - 1, state.fes_used, state.best.fitness))
    return RunReport(trace=trace, final_best=state.best.copy(), fes_total=state.fes_used, seed=seed)
