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
from dataclasses import dataclass
from functools import lru_cache, partial
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
    """(rows, dim) random steps from eps_fn or the epsilon_kind source, in one draw."""
    if rows == 0:
        return np.empty((0, dim))
    draw = _EPSILON_STEPS[kind] if eps_fn is None else eps_fn
    return np.asarray(draw(rng, rows * dim), dtype=float).reshape(rows, dim)


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

    eps_fn overrides the random-step source (signature: rng, n -> vector);
    by default steps follow params.epsilon_kind.

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
    the S single-block sweeps bit for bit.

    The checks, counts and draws are made here, once, and handed to one of
    two kernels that return the same positions bit for bit: the C loop
    _SWEEP_C whenever its library builds, loads and passes its self-check
    (_load_native_sweep, once per process), else _sweep_python, the same
    loop on plain Python floats.
    """
    if np.isnan(fitness).any() or (fitness[:, 1:] < fitness[:, :-1]).any():
        raise ValueError("pairwise_sweep needs fitness sorted ascending with no NaN (call order first)")
    blocks, pop = fitness.shape
    dim = objective.dim
    pos = np.ascontiguousarray(positions, dtype=float)
    if pos.shape != (blocks, pop, dim):
        raise ValueError(f"positions must have shape ({pop}, {dim}), got {pos.shape[1:]}")
    # once sorted, a firefly's strictly brighter peers are the prefix before its tie group
    counts = [f.searchsorted(f, side="left") for f in fitness]
    counts = counts[0][None] if blocks == 1 else np.concatenate(counts).reshape(blocks, pop)
    # a block's draw: one row per move, plus one per walker (a firefly with no brighter peer)
    rows = [sum(c) + (0 if params.elitism else c.count(0)) for c in counts.tolist()]
    draws = [_draw_eps_rows(rng, r, dim, params.epsilon_kind, eps_fn) for rng, r in zip(rngs, rows)]
    eps = draws[0] if blocks == 1 else np.concatenate(draws)
    kernel = _load_native_sweep()[0] or _sweep_python
    synchronous = params.update_scheme == "synchronous"
    return kernel(pos, counts, eps, objective.lower, objective.upper, alphas, params.beta0, -params.gamma,
                  params.elitism, synchronous)


# The sweep as one C function for any (blocks, pop, dim), built and loaded by
# _load_native_sweep; _sweep_python is the same loop on Python floats.  Each
# element sees the same operations in the same order in both: 1/width and
# alpha_t * width formed once per call and per block from width = hi - lo
# (the single roundings numpy makes), r2 summed left to right from
# (a - p) * (1/width), beta0 * exp(ng * r2) through libm's exp (the function
# math.exp calls), (p + beta*d) + e, the synchronous c += beta*d + e then
# p + c, and the same clamp.  e = eps * aw is the one rounding of
# _sweep_python's eps * (alpha_t * width).  Block b is rows b*pop to
# (b+1)*pop, its peers are rows of the same block, and eps carries on from
# block to block in draw order.  Rows are read from pos and written to out:
# an asynchronous move reads its peers' moved rows in out, a synchronous one
# the snapshot in pos.  The front end's order check makes counts[i] <= i
# within a block, so every peer row has been written already.  scale is
# room for the two rows 1/width and alpha_t * width, allocated by the
# caller, so the loop allocates nothing and has no failure to report.
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

void fa_sweep(int64_t blocks, int64_t pop, int64_t dim, const double *pos, double *out,
              const int64_t *counts, const double *eps, const double *lo, const double *hi,
              const double *alpha, double beta0, double ng, int elitism, int synchronous, double *scale)
{
    double *w = scale, *aw = scale + dim;
    for (int64_t k = 0; k < dim; k++)
        w[k] = 1.0 / (hi[k] - lo[k]);
    for (int64_t b = 0; b < blocks; b++, pos += pop * dim, out += pop * dim, counts += pop) {
        for (int64_t k = 0; k < dim; k++)
            aw[k] = alpha[b] * (hi[k] - lo[k]);
        for (int64_t i = 0; i < pop; i++) {
            const double *p = pos + i * dim;
            double *o = out + i * dim;
            if (counts[i] == 0 && elitism) {
                for (int64_t k = 0; k < dim; k++)
                    o[k] = p[k];
            } else if (counts[i] == 0) {
                for (int64_t k = 0; k < dim; k++)
                    o[k] = clamp(p[k] + eps[k] * aw[k], lo[k], hi[k]);
                eps += dim;
            } else if (synchronous) {
                for (int64_t k = 0; k < dim; k++)
                    o[k] = 0.0;
                for (int64_t j = 0; j < counts[i]; j++, eps += dim) {
                    const double *a = pos + j * dim;
                    double beta = attraction(a, p, w, dim, beta0, ng);
                    for (int64_t k = 0; k < dim; k++)
                        o[k] += beta * (a[k] - p[k]) + eps[k] * aw[k];
                }
                for (int64_t k = 0; k < dim; k++)
                    o[k] = clamp(p[k] + o[k], lo[k], hi[k]);
            } else {
                for (int64_t k = 0; k < dim; k++)
                    o[k] = p[k];
                for (int64_t j = 0; j < counts[i]; j++, eps += dim) {
                    const double *a = out + j * dim;
                    double beta = attraction(a, o, w, dim, beta0, ng);
                    for (int64_t k = 0; k < dim; k++)
                        o[k] = clamp(o[k] + beta * (a[k] - o[k]) + eps[k] * aw[k], lo[k], hi[k]);
                }
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


def _sweep_python(pos, counts, eps, lower, upper, alphas, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep on plain Python floats: the fallback to the C loop.

    Block by block, one firefly and one d at a time, each element sees
    _SWEEP_C's operations in its order.  Rows are moved
    in place in out; an asynchronous move reads its peers' moved rows
    there, a synchronous one the snapshot in peers.
    """
    width = upper - lower
    lo, hi, w = lower.tolist(), upper.tolist(), (1.0 / width).tolist()
    dims = range(len(lo))
    exp = math.exp
    out = pos.tolist()
    snapshot = pos.tolist() if synchronous else out
    start = 0
    for block, peers, block_counts, alpha_t in zip(out, snapshot, counts.tolist(), alphas):
        # the block's rows of the draw, in draw order, as steps eps * (alpha_t * width):
        # one rounding per element
        stop = start + sum(block_counts) + (0 if elitism else block_counts.count(0))
        steps = iter((eps[start:stop] * (alpha_t * width)).tolist())
        start = stop
        for p, ci in zip(block, block_counts):
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
    return np.array(out, dtype=float)


def _address(a: np.ndarray) -> int:
    """Where the C-contiguous array a starts in memory.

    ctypes.c_char.from_buffer takes a third of the time of a.ctypes.data,
    but only for a writable array of at least one byte.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _sweep_c(fa_sweep, pos, counts, eps, lower, upper, alphas, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep in fa_sweep, the loaded _SWEEP_C.

    pos is C-contiguous float64 (S, n, d), as sweep_blocks makes it.  The C
    loop scales the steps, so the draw is neither copied nor written to.
    """
    blocks, pop, dim = pos.shape
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    eps = np.ascontiguousarray(eps)
    lower = np.ascontiguousarray(lower)
    upper = np.ascontiguousarray(upper)
    out = np.empty_like(pos)
    # bytes, whose buffer ctypes passes as the pointer: a ctypes array type
    # per block count faulted in about 25 more pages (100 KiB) in a process
    alpha = struct.pack(f"{blocks}d", *alphas)
    scale = np.empty(2 * dim)
    fa_sweep(blocks, pop, dim, _address(pos), _address(out), _address(counts), _address(eps), _address(lower),
             _address(upper), alpha, beta0, ng, elitism, synchronous, _address(scale))
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
    cannot pass.  Both schemes, with and without elitism.
    """
    first, second = [0, 1, 1, 3, 4, 5], [0, 0, 2, 3, 3, 5]
    lower, upper = np.full(3, -1.0), np.full(3, 1.0)
    for counts, alphas in [(np.array([first]), (0.5,)), (np.array([first, second]), (0.5, 0.3))]:
        for synchronous in (False, True):
            for elitism in (False, True):
                rng = np.random.default_rng(2)
                pos = rng.uniform(-1.0, 1.0, (len(counts), 6, 3))
                walkers = 0 if elitism else int(np.count_nonzero(counts == 0))
                eps = rng.standard_normal((int(counts.sum()) + walkers, 3))
                args = (pos, counts, eps, lower, upper, alphas, 0.9, -2.0, elitism, synchronous)
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
    fa_sweep.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_double] * 2 + [ctypes.c_int] * 2 + [
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
