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

import contextlib
import ctypes
import importlib.machinery
import math
import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .randomization import ScheduleDescriptor, alpha_at, gaussian_step, uniform_centered_step

# epsilon_kind -> random-step source (signature: rng, n -> vector)
_EPSILON_STEPS = {"gaussian": gaussian_step, "uniform_centered": uniform_centered_step}
EPSILON_KINDS = tuple(_EPSILON_STEPS)
UPDATE_SCHEMES = ("asynchronous", "synchronous")


class EvaluationError(RuntimeError):
    """The objective produced a non-finite value (NaN or +-inf); the run cannot continue meaningfully."""


@dataclass(frozen=True)
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
        if not isinstance(self.dim, (int, np.integer)) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {self.dim!r}")
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
    """Population, counters, best-so-far, and the run's random stream.

    Firefly i is row i of positions (n, d) and fitness[i] (NaN until evaluated).
    """

    positions: np.ndarray
    fitness: np.ndarray
    t: int
    fes_used: int
    best: Optional[Firefly]
    rng: np.random.Generator

    @property
    def fireflies(self) -> list[Firefly]:
        """The population as Firefly copies, their positions read-only."""
        positions = self.positions.copy()
        positions.flags.writeable = False
        return [Firefly(row, value) for row, value in zip(positions, self.fitness.tolist())]


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
    """(rows, dim) random steps from eps_fn or the epsilon_kind source, in one draw.

    A source that returns other than rows * dim values raises ValueError.
    """
    if rows == 0:
        return np.empty((0, dim))
    draw = _EPSILON_STEPS[kind] if eps_fn is None else eps_fn
    values = np.asarray(draw(rng, rows * dim), dtype=float)
    if values.size != rows * dim:
        raise ValueError(f"the random-step source returned {values.size} values, not the {rows * dim} asked for")
    return values.reshape(rows, dim)


# Row twins as (scalar function, twin) pairs, registered by benchmarks.py:
# a twin evaluates an (n, d) array of points in one call and gives, row for
# row, the bits of its function (and, for a landscape with state, the same
# state afterwards).  _row_twin matches objective.eval by identity, or a
# bound method by its __func__, with the twin looked up by name on the same
# instance (so a subclass override of the twin is used).  Any wrapper of a
# registered function (a penalty closure, a tracing wrapper, a
# functools.wraps copy) and any override of it keep the per-point path, and
# every call goes through the wrapper.
_ROW_TWINS: list[tuple[Callable, Callable]] = []


def _row_twin(fn: Callable) -> Optional[Callable]:
    func = getattr(fn, "__func__", fn)
    rows = next((rows for f, rows in _ROW_TWINS if f is func), None)
    if rows is None or func is fn:
        return rows
    return getattr(fn.__self__, rows.__name__)


def checked_rows(objective: Objective, positions: np.ndarray) -> list[float]:
    """objective.eval at the rows of an (n, d) array of positions, as floats.

    When objective.eval has a row twin (see _ROW_TWINS), the array goes to
    one twin call; otherwise its rows go to objective.eval one by one, in
    order.  Both give the same values.  A non-finite value (NaN or +-inf)
    raises EvaluationError naming the first such position; on the
    per-point path no position after it is evaluated.
    """
    rows = _row_twin(objective.eval)
    if rows is None:
        values = map(float, map(objective.eval, positions))
    else:
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
    (alpha * eps_i) * width, with r_i the normalized distance.  r^2 is one
    stacked matmul, (1, d) @ (d, 1) per row, which reduces each row with
    the dot product r @ r uses, and beta is one math.exp per row; both keep
    every bit of the one-pair formula (einsum, sum(axis=1) and np.exp do
    not).  The caller clamps to bounds.
    """
    diff = target - positions
    nd = diff / width
    r2 = (nd[:, None, :] @ nd[:, :, None])[:, 0, 0]
    beta = params.beta0 * np.array([math.exp(-params.gamma * r) for r in r2.tolist()])
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


def random_positions(rng: np.random.Generator, objective: Objective, n: int) -> np.ndarray:
    """(n, d) positions drawn uniformly inside the bounds."""
    return rng.uniform(objective.lower, objective.upper, size=(n, objective.dim))


def initialize(objective: Objective, params: FaParams, seed) -> SwarmState:
    """Fresh swarm with positions drawn uniformly inside the bounds.

    The same seed always reproduces the same state bit for bit.  Fitness
    stays unset (NaN) until the first evaluation pass.
    """
    rng = np.random.default_rng(seed)
    positions = random_positions(rng, objective, params.pop_size)
    return SwarmState(positions, np.full(params.pop_size, math.nan), t=0, fes_used=0, best=None, rng=rng)


def evaluate(state: SwarmState, objective: Objective, params: FaParams) -> SwarmState:
    """Refresh fitness through checked_rows, spending at most the remaining budget.

    When fewer evaluations remain than fireflies, only the leading rows are
    refreshed and the budget is exhausted, which ends the run.  The best-so-far
    becomes the first minimum of the fresh values if that is strictly lower.
    """
    n = max(0, min(len(state.fitness), params.max_fes - state.fes_used))
    return record_values(state, checked_rows(objective, state.positions[:n]))


def record_values(state: SwarmState, values: list[float]) -> SwarmState:
    """Store fresh values as the fitness of the leading rows and charge them to the budget.

    The best-so-far becomes the first minimum of the values if that is
    strictly lower (or if there is none yet).
    """
    n = len(values)
    state.fitness[:n] = values
    if values:
        i = values.index(min(values))
        if state.best is None or values[i] < state.best.fitness:
            state.best = Firefly(state.positions[i].copy(), values[i])
    state.fes_used += n
    return state


def order(state: SwarmState) -> SwarmState:
    """Sort ascending by fitness into new arrays; ties keep their relative order."""
    if np.isnan(state.fitness).any():
        raise ValueError("cannot order an unevaluated population")
    rank = np.argsort(state.fitness, kind="stable")
    state.positions = state.positions[rank]
    state.fitness = state.fitness[rank]
    return state


def find_best(state: SwarmState) -> Firefly:
    """Copy of the current generation's best firefly; reconciles best-so-far."""
    if not state.fitness.size:
        raise ValueError("empty population")
    i = int(np.argmin(state.fitness))
    current = Firefly(state.positions[i].copy(), float(state.fitness[i]))
    if state.best is None or current.fitness < state.best.fitness:
        state.best = current.copy()
    return current


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

    eps_fn overrides the random-step source (signature: rng, n -> vector of
    n values); by default steps follow params.epsilon_kind.  The default
    sources are drawn in pieces of at most _PIECE_DOUBLES values (more only
    for one firefly's rows), which gives one draw's values and stream state;
    eps_fn is called once for the whole sweep, since a custom source need
    not split that way.

    The fitness must be sorted ascending with no NaN (order does this) and
    positions must have shape (len(fitness), objective.dim); otherwise a
    ValueError is raised before any random draw.

    This is sweep_blocks on one block: one swarm, one stream, one alpha_t.
    """
    moved = sweep_blocks(state.positions[None], state.fitness[None], [state.rng], objective, params, (alpha_t,), eps_fn)
    state.positions = moved[0]


def sweep_blocks(
    positions: np.ndarray,
    fitness: np.ndarray,
    rngs: Sequence[np.random.Generator],
    objective: Objective,
    params: FaParams,
    alphas: Sequence[float],
    eps_fn: Optional[Callable] = None,
) -> np.ndarray:
    """pairwise_sweep on S independent blocks at once; returns the (S, n, d) moved positions.

    Block b is one sorted swarm: positions[b] (n, d), fitness[b] (n,), its
    random stream rngs[b] and its step scale alphas[b].  Each block draws
    from its own stream, in block order, exactly the rows its own
    pairwise_sweep would draw, and no block sees another, so the result is
    the S single-block sweeps bit for bit.  One stream and one alpha per
    block are required: other lengths raise ValueError before any draw.

    The checks and counts are made here, once, and handed to one of two
    kernels that return the same positions bit for bit: the C loop _SWEEP_C
    whenever its library builds, loads and passes its self-check
    (_load_native_sweep, once per process), else _sweep_python, the same
    loop on plain Python floats.  The steps go to the kernel as the pieces
    of _step_pieces: one piece drawn up front when they fit in
    _PIECE_DOUBLES, else pieces drawn as the kernel reaches them, so a
    sweep holds one piece of steps at a time (eps_fn: one block's whole
    draw).
    """
    blocks, pop = fitness.shape
    # a NaN fails every comparison, so with two or more fireflies the order check finds it too
    if not ((fitness[:, 1:] >= fitness[:, :-1]).all() and (pop > 1 or not np.isnan(fitness).any())):
        raise ValueError("pairwise_sweep needs fitness sorted ascending with no NaN (call order first)")
    if not len(rngs) == len(alphas) == blocks:
        raise ValueError(f"sweep_blocks needs one rng and one alpha per block: {blocks} blocks, "
                         f"{len(rngs)} rngs, {len(alphas)} alphas")
    dim = objective.dim
    pos = np.ascontiguousarray(positions, dtype=float)
    if pos.shape != (blocks, pop, dim):
        raise ValueError(f"positions must have shape ({pop}, {dim}), got {pos.shape[1:]}")
    # once sorted, a firefly's strictly brighter peers are the prefix before its tie group
    counts = [f.searchsorted(f, side="left") for f in fitness]
    counts = counts[0][None] if blocks == 1 else np.concatenate(counts).reshape(blocks, pop)
    pieces = _step_pieces(counts, params.elitism, rngs, dim, params.epsilon_kind, eps_fn)
    kernel = _load_native_sweep()[0] or _sweep_python
    synchronous = params.update_scheme == "synchronous"
    return kernel(pos, counts, pieces, objective.lower, objective.upper, alphas, params.beta0, -params.gamma,
                  params.elitism, synchronous)


# Steps per piece of a sweep: 8192 doubles, 64 KiB.  A 200 x 50 sweep is
# then 141 pieces (each of the 36 fireflies with more than 163 brighter
# peers is a piece alone), and the traced peak of one pairwise_sweep is 246
# KiB on the C kernel and 1063 KiB on the Python one, against 7857 and
# 48215 KiB for the whole draw; each piece's draw and C call cost that sweep
# 2-6% more time.  Pieces of 16384 doubles cost about half of that, but take
# the Python kernel's 60 x 40 peak from 691 to 1331 KiB.  25 x 5 (1505
# doubles), a 5 x 8 x 5 multiswarm (725) and 2 x 4000 (8000) are one piece.
_PIECE_DOUBLES = 8192


def _step_pieces(counts, elitism, rngs, dim, kind, eps_fn):
    """The sweep's steps as (start, stop, eps) pieces, in row order.

    start and stop are stacked firefly rows (block b, firefly i is row
    b * n + i), and eps holds, in draw order, the (rows, d) steps of those
    fireflies: one per brighter peer, one per walker (a firefly with no
    brighter peer) unless elitism holds it.  A sweep whose steps fit in
    _PIECE_DOUBLES is one piece, drawn here, block by block, as one list;
    a larger one comes as _drawn_pieces, a generator that draws each
    piece when the kernel takes it.
    """
    blocks, pop = counts.shape
    walker = 0 if elitism else 1
    rows = [sum(c) + walker * c.count(0) for c in counts.tolist()]
    if sum(rows) * dim <= _PIECE_DOUBLES:
        draws = [_draw_eps_rows(rng, r, dim, kind, eps_fn) for rng, r in zip(rngs, rows)]
        return [(0, blocks * pop, draws[0] if blocks == 1 else np.concatenate(draws))] if pop else []
    return _drawn_pieces([c or walker for c in counts.ravel().tolist()], pop, rngs, dim, kind, eps_fn)


def _drawn_pieces(need, pop, rngs, dim, kind, eps_fn):
    """The pieces of a sweep whose steps pass _PIECE_DOUBLES, each drawn as it is taken.

    need[r] is the rows of stacked firefly r.  A piece is the longest run
    of fireflies from where the last one stopped whose rows fit in
    _PIECE_DOUBLES, or one firefly whose rows alone do not.  The pieces
    cross block boundaries freely, and block b's rows come from rngs[b], in
    row order.  The epsilon_kind sources draw each block's rows of a piece
    as they come, which gives one draw's values and stream state; eps_fn
    draws a block whole at the block's first piece, and its pieces are
    slices of that draw.  Either way every stream sees the calls of one
    draw per block, in block order.
    """
    ends = list(accumulate(need, initial=0))  # ends[r]: the step rows of fireflies before r
    limit = _PIECE_DOUBLES // dim
    start = 0
    while start < len(need):
        stop = max(bisect_right(ends, ends[start] + limit) - 1, start + 1)
        parts = []
        for b in range(start // pop, (stop - 1) // pop + 1):
            first, last = max(start, b * pop), min(stop, (b + 1) * pop)
            if eps_fn is None:
                parts.append(_draw_eps_rows(rngs[b], ends[last] - ends[first], dim, kind, None))
                continue
            if first == b * pop:
                whole = _draw_eps_rows(rngs[b], ends[first + pop] - ends[first], dim, kind, eps_fn)
            parts.append(whole[ends[first] - ends[b * pop]:ends[last] - ends[b * pop]])
        yield start, stop, parts[0] if len(parts) == 1 else np.concatenate(parts)
        start = stop


# The sweep as one C function for any (blocks, pop, dim), built and loaded by
# _load_native_sweep; _sweep_python is the same loop on Python floats.  Each
# element sees the same operations in the same order in both: 1/width formed
# once per call and alpha_t * width at the start of the call and of each
# block, from width = hi - lo (the single roundings numpy makes), r2 summed
# left to right from (a - p) * (1/width), beta0 * exp(ng * r2) through libm's
# exp (the function math.exp calls), (p + beta*d) + e, the synchronous
# c += beta*d + e then p + c, and the same clamp.  e = eps * aw is the one rounding of
# _sweep_python's eps * (alpha_t * width).  One call moves the stacked rows
# start to stop - 1 of one piece (row r is firefly r % pop of block r / pop)
# and reads eps, that piece's steps, from its first row.  A row's peers are
# rows of its own block, read from pos and written to out: an asynchronous
# move reads its peers' moved rows in out, a synchronous one the snapshot in
# pos.  The front end's order check makes counts[i] <= i within a block, so
# every peer row has been written already, by this call or an earlier one.
# scale is room for the two rows 1/width and alpha_t * width, allocated by
# the caller, so the loop allocates nothing and has no failure to report.
_SWEEP_C = r"""
#include <math.h>
#include <stdint.h>

static double clamp(double v, double l, double h)
{
    return v < l ? l : v > h ? h : v;
}

static double attraction(const double *a, const double *p, const double *w, int64_t dim,
                         double beta0, double ng)
{
    double r2 = 0.0;
    for (int64_t k = 0; k < dim; k++) {
        double n = (a[k] - p[k]) * w[k];
        r2 += n * n;
    }
    return beta0 * exp(ng * r2);
}

void fa_sweep(int64_t pop, int64_t dim, int64_t start, int64_t stop, const double *pos, double *out,
              const int64_t *counts, const double *eps, const double *lo, const double *hi,
              const double *alpha, double beta0, double ng, int elitism, int synchronous, double *scale)
{
    double *w = scale, *aw = scale + dim;
    for (int64_t k = 0; k < dim; k++)
        w[k] = 1.0 / (hi[k] - lo[k]);
    for (int64_t r = start, b = start / pop, i = start % pop; r < stop; r++, i++) {
        if (i == pop)
            b++, i = 0;
        const double *snapshot = pos + b * pop * dim, *p = pos + r * dim;
        const double *moved = out + b * pop * dim;
        double *o = out + r * dim;
        if (r == start || i == 0)
            for (int64_t k = 0; k < dim; k++)
                aw[k] = alpha[b] * (hi[k] - lo[k]);
        if (counts[r] == 0 && elitism) {
            for (int64_t k = 0; k < dim; k++)
                o[k] = p[k];
        } else if (counts[r] == 0) {
            for (int64_t k = 0; k < dim; k++)
                o[k] = clamp(p[k] + eps[k] * aw[k], lo[k], hi[k]);
            eps += dim;
        } else if (synchronous) {
            for (int64_t k = 0; k < dim; k++)
                o[k] = 0.0;
            for (int64_t j = 0; j < counts[r]; j++, eps += dim) {
                const double *a = snapshot + j * dim;
                double beta = attraction(a, p, w, dim, beta0, ng);
                for (int64_t k = 0; k < dim; k++)
                    o[k] += beta * (a[k] - p[k]) + eps[k] * aw[k];
            }
            for (int64_t k = 0; k < dim; k++)
                o[k] = clamp(p[k] + o[k], lo[k], hi[k]);
        } else {
            for (int64_t k = 0; k < dim; k++)
                o[k] = p[k];
            for (int64_t j = 0; j < counts[r]; j++, eps += dim) {
                const double *a = moved + j * dim;
                double beta = attraction(a, o, w, dim, beta0, ng);
                for (int64_t k = 0; k < dim; k++)
                    o[k] = clamp(o[k] + beta * (a[k] - o[k]) + eps[k] * aw[k], lo[k], hi[k]);
            }
        }
    }
}
"""
# Fixed, so every machine builds the same arithmetic: no -ffast-math and no
# -march=native, and no contraction of a * b + c into one rounding (FMA).
_SWEEP_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# where the library is cached; deleting it there makes the next process rebuild it
_NATIVE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")


def _sweep_python(pos, counts, pieces, lower, upper, alphas, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep on plain Python floats: the fallback to the C loop.

    Piece by piece, one firefly and one d at a time, each element sees
    _SWEEP_C's operations in its order.  Rows are moved in place in out; an
    asynchronous move reads its peers' moved rows there, a synchronous one
    the snapshot in peers.  Each piece's steps become Python floats only
    when the loop reaches that piece.
    """
    width = upper - lower
    lo, hi, w = lower.tolist(), upper.tolist(), (1.0 / width).tolist()
    dims = range(len(lo))
    exp = math.exp
    out = pos.tolist()
    snapshot = pos.tolist() if synchronous else out
    counts = counts.tolist()
    pop = len(counts[0])
    for start, stop, eps in pieces:
        row = 0
        for b in range(start // pop, (stop - 1) // pop + 1):
            first, last = max(start - b * pop, 0), min(stop - b * pop, pop)
            block_counts = counts[b][first:last]
            # the block's rows of the piece, in draw order, as steps eps * (alpha_t * width):
            # one rounding per element
            rows = sum(block_counts) + (0 if elitism else block_counts.count(0))
            steps = iter((eps[row:row + rows] * (alphas[b] * width)).tolist())
            row += rows
            peers = snapshot[b]
            for p, ci in zip(out[b][first:last], block_counts):
                if ci == 0:
                    if not elitism:
                        e = next(steps)
                        for d in dims:
                            v = p[d] + e[d]
                            p[d] = lo[d] if v < lo[d] else hi[d] if v > hi[d] else v
                    continue
                c = [0.0] * len(lo)
                for a in peers[:ci]:
                    r2 = 0.0
                    for d in dims:
                        n = (a[d] - p[d]) * w[d]
                        r2 += n * n
                    beta = beta0 * exp(ng * r2)
                    e = next(steps)
                    if synchronous:
                        for d in dims:
                            c[d] += beta * (a[d] - p[d]) + e[d]
                    else:
                        for d in dims:
                            v = p[d] + beta * (a[d] - p[d]) + e[d]
                            p[d] = lo[d] if v < lo[d] else hi[d] if v > hi[d] else v
                if synchronous:
                    for d in dims:
                        v = p[d] + c[d]
                        p[d] = lo[d] if v < lo[d] else hi[d] if v > hi[d] else v
    return np.array(out, dtype=float).reshape(pos.shape)


def _address(a: np.ndarray) -> int:
    """Where the C-contiguous array a starts in memory.

    ctypes.c_char.from_buffer takes a third of the time of a.ctypes.data,
    but only for a writable array of at least one byte.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _sweep_c(fa_sweep, pos, counts, pieces, lower, upper, alphas, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep in fa_sweep, the loaded _SWEEP_C: one call per piece.

    pos is C-contiguous float64 (S, n, d), as sweep_blocks makes it.  The C
    loop scales the steps, so no piece is copied or written to.
    """
    blocks, pop, dim = pos.shape
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    lower = np.ascontiguousarray(lower)
    upper = np.ascontiguousarray(upper)
    out = np.empty_like(pos)
    # bytes, whose buffer ctypes passes as the pointer: a ctypes array type
    # per block count faulted in about 25 more pages (100 KiB) in a process
    alpha = struct.pack(f"{blocks}d", *alphas)
    scale = np.empty(2 * dim)
    p, o, c, s = _address(pos), _address(out), _address(counts), _address(scale)
    lo, hi = _address(lower), _address(upper)
    for start, stop, eps in pieces:
        eps = np.ascontiguousarray(eps)  # held here, so its address stays valid through the call
        fa_sweep(pop, dim, start, stop, p, o, c, _address(eps), lo, hi, alpha, beta0, ng, elitism, synchronous, s)
    return out


def _native_path() -> str:
    """Where the library built from _SWEEP_C is cached, keyed by source, flags and interpreter."""
    key = zlib.crc32("\0".join((_SWEEP_C, *_SWEEP_C_FLAGS)).encode())
    return os.path.join(_NATIVE_DIR, f"_sweep_{key:08x}{importlib.machinery.EXTENSION_SUFFIXES[0]}")


def _build_native(source: str, path: str) -> None:
    """Compile source into the shared library at path with the compiler Python was built with.

    The compiler writes a temporary file in the same directory, which then
    replaces path in one step, so processes that build at once each leave
    a whole library; a failed build removes its temporary file.  Raises
    OSError when there is no compiler or the build fails.
    """
    import subprocess
    import sysconfig
    import tempfile

    compiler = (sysconfig.get_config_var("CC") or "cc").split()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *_SWEEP_C_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source.encode(), capture_output=True,
        )
        if done.returncode != 0:
            raise OSError(f"{compiler[0]} exited with {done.returncode}: {done.stderr.decode(errors='replace')}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _native_agrees(kernel) -> bool:
    """Whether kernel gives _sweep_python's bytes on two fixed cases.

    Six fireflies in a box of width 2 in three dims, with alpha_t 0.5, so
    steps of scale 1 move them past both bounds; the counts of fitness
    [0, 1, 1, 2, 3, 4] give one walker and one tie group.  Then two such
    blocks in one call, each with its own alpha_t and its own walkers (the
    counts of [0, 0, 1, 2, 2, 3] in the second), so a block that starts at
    the wrong row, reads another block's alpha_t or restarts the steps
    cannot pass.  The two blocks come as three pieces, cut inside block 0
    and then at the block boundary (or, with elitism, inside block 1, so
    the middle piece crosses the boundary), so a loop that mishandles a
    piece's row range cannot pass either.  Both schemes, with and without
    elitism.
    """
    first, second = [0, 1, 1, 3, 4, 5], [0, 0, 2, 3, 3, 5]
    lower, upper = np.full(3, -1.0), np.full(3, 1.0)
    for counts, alphas in [(np.array([first]), (0.5,)), (np.array([first, second]), (0.5, 0.3))]:
        for synchronous in (False, True):
            for elitism in (False, True):
                rng = np.random.default_rng(2)
                pos = rng.uniform(-1.0, 1.0, (len(counts), 6, 3))
                # the first step row of each firefly, and the end of the steps
                rows = np.cumsum([0, *np.where(counts == 0, 0 if elitism else 1, counts).ravel()])
                eps = rng.standard_normal((int(rows[-1]), 3))
                cuts = [0, 6] if len(counts) == 1 else [0, 3, 9 if elitism else 6, 12]
                pieces = [(a, b, eps[rows[a]:rows[b]]) for a, b in zip(cuts, cuts[1:])]
                args = (pos, counts, pieces, lower, upper, alphas, 0.9, -2.0, elitism, synchronous)
                if kernel(*args).tobytes() != _sweep_python(*args).tobytes():
                    return False
    return True


@lru_cache(maxsize=None)
def _load_native_sweep() -> tuple[Optional[Callable], str]:
    """(the C kernel, "") if _SWEEP_C builds, loads and passes _native_agrees; else (None, why not).

    sweep_blocks calls it at its first sweep in a process, never at
    import.  The library is built once per machine and interpreter into
    _NATIVE_DIR and loaded from there afterwards.
    """
    path = _native_path()
    try:
        if not os.path.exists(path):
            _build_native(_SWEEP_C, path)
        fa_sweep = ctypes.CDLL(path).fa_sweep
    except (OSError, AttributeError) as exc:
        return None, f"the C sweep did not build or load: {exc}"
    fa_sweep.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 7 + [ctypes.c_double] * 2 + [ctypes.c_int] * 2 + [
        ctypes.c_void_p]
    fa_sweep.restype = None
    kernel = partial(_sweep_c, fa_sweep)
    if not _native_agrees(kernel):
        return None, f"{path} does not give the Python sweep's bytes"
    return kernel, ""


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


def step_swarms(states: Sequence[SwarmState], objective: Objective, params: FaParams) -> None:
    """One generation of every swarm with budget left, all at once: step on each in turn, bit for bit.

    The swarms must be of one size.  Their rows go to one checked_rows
    call, each swarm's rows cut to its own remaining budget, in swarm
    order, which is the order step would evaluate them in (a sweep never
    evaluates).  record_values writes each swarm's values back, one stable
    argsort orders the (S, n) fitness, and the swarms still within budget
    move in one sweep_blocks call.  If the objective raises, no swarm has
    been written back.
    """
    active = [s for s in states if s.fes_used < params.max_fes]
    if not active:
        return
    pop, dim = len(active[0].fitness), objective.dim
    alphas = [alpha_at(params.alpha_schedule, s.t) for s in active]
    takes = [min(pop, params.max_fes - s.fes_used) for s in active]
    pos = np.concatenate([s.positions for s in active])
    rows = pos if sum(takes) == len(pos) else np.concatenate([s.positions[:n] for s, n in zip(active, takes)])
    values = checked_rows(objective, rows)
    start = 0
    for s, n in zip(active, takes):
        record_values(s, values[start:start + n])
        start += n
    fit = np.concatenate([s.fitness for s in active]).reshape(-1, pop)
    if np.isnan(fit).any():
        raise ValueError("cannot order an unevaluated population")
    # each swarm's ranks, offset to its rows of the stacked (S * n) arrays
    rank = np.argsort(fit, axis=1, kind="stable")
    rank += np.arange(0, rank.size, pop)[:, None]
    rank = rank.ravel()
    fit = fit.ravel()[rank].reshape(-1, pop)
    pos = pos.reshape(-1, dim)[rank].reshape(-1, pop, dim)
    moving = [k for k, s in enumerate(active) if s.fes_used < params.max_fes]
    rngs = [active[k].rng for k in moving]
    if len(moving) == len(active):
        pos = sweep_blocks(pos, fit, rngs, objective, params, alphas)
    elif moving:
        pos[moving] = sweep_blocks(pos[moving], fit[moving], rngs, objective, params, [alphas[k] for k in moving])
    for s, p, f in zip(active, pos, fit):
        s.positions, s.fitness = p, f
        s.t += 1


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
