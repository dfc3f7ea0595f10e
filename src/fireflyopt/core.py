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
    remaining = params.max_fes - state.fes_used
    n = max(0, min(len(state.fitness), remaining))
    values = checked_rows(objective, state.positions[:n])
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

    The checks, counts, draw and bounds are made here, once, and handed to
    one of two kernels that return the same positions bit for bit: the C
    loop _SWEEP_C whenever its library builds, loads and passes its
    self-check (_load_native_sweep, once per process), else _sweep_python,
    the same loop on plain Python floats.
    """
    fit = state.fitness
    if np.isnan(fit).any() or (fit[1:] < fit[:-1]).any():
        raise ValueError("pairwise_sweep needs fitness sorted ascending with no NaN (call order first)")
    dim = objective.dim
    pos = np.ascontiguousarray(state.positions, dtype=float)
    if pos.shape != (len(fit), dim):
        raise ValueError(f"positions must have shape ({len(fit)}, {dim}), got {pos.shape}")
    # once sorted, a firefly's strictly brighter peers are the prefix before its tie group
    counts = np.searchsorted(fit, fit, side="left")
    walkers = 0 if params.elitism else int(np.count_nonzero(counts == 0))
    eps = _draw_eps_rows(state.rng, int(counts.sum()) + walkers, dim, params.epsilon_kind, eps_fn)
    width = objective.width
    bounds = np.concatenate([objective.lower, objective.upper, 1.0 / width, alpha_t * width])
    kernel = _load_native_sweep()[0] or _sweep_python
    synchronous = params.update_scheme == "synchronous"
    state.positions = kernel(pos, counts, eps, bounds, params.beta0, -params.gamma, params.elitism, synchronous)


# The sweep as one C function for any (pop, dim), built and loaded by
# _load_native_sweep; _sweep_python is the same loop on Python floats.  Each
# element sees the same operations in the same order in both: r2 summed left
# to right from (a - p) * (1/width), beta0 * exp(ng * r2) through libm's exp
# (the function math.exp calls), (p + beta*d) + e, the synchronous
# c += beta*d + e then p + c, and the same clamp.  e = eps * aw is the one
# rounding of _sweep_python's eps * (alpha_t * width).  Rows are read from
# pos and written to out: an asynchronous move reads its peers' moved rows in
# out, a synchronous one the snapshot in pos.  pairwise_sweep's order check
# makes counts[i] <= i, so every peer row has been written already.
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

void fa_sweep(int64_t pop, int64_t dim, const double *pos, double *out, const int64_t *counts,
              const double *eps, const double *bounds, double beta0, double ng,
              int elitism, int synchronous)
{
    const double *lo = bounds, *hi = bounds + dim, *w = bounds + 2 * dim, *aw = bounds + 3 * dim;
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
"""
# Fixed, so every machine builds the same arithmetic: no -ffast-math and no
# -march=native, and no contraction of a * b + c into one rounding (FMA).
_SWEEP_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# where the library is cached; deleting it there makes the next process rebuild it
_NATIVE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")


def _sweep_python(pos, counts, eps, bounds, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep on plain Python floats, one firefly and one d at a time: the fallback to the C loop.

    Each element sees _SWEEP_C's operations in its order.  Rows are moved
    in place in out; an asynchronous move reads its peers' moved rows
    there, a synchronous one the snapshot in peers.
    """
    dim = pos.shape[1]
    dims = range(dim)
    lo, hi, w = bounds[:dim].tolist(), bounds[dim:2 * dim].tolist(), bounds[2 * dim:3 * dim].tolist()
    # steps: eps * (alpha_t * width), one rounding per element, taken row by row in draw order
    steps = iter((eps * bounds[3 * dim:]).tolist())
    exp = math.exp
    out = pos.tolist()
    peers = pos.tolist() if synchronous else out
    for p, ci in zip(out, counts.tolist()):
        if ci == 0:
            if not elitism:
                e = next(steps)
                for d in dims:
                    v = p[d] + e[d]
                    p[d] = lo[d] if v < lo[d] else hi[d] if v > hi[d] else v
            continue
        c = [0.0] * dim
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


def _sweep_c(fa_sweep, pos, counts, eps, bounds, beta0, ng, elitism, synchronous) -> np.ndarray:
    """The sweep in fa_sweep, the loaded _SWEEP_C.

    pos and bounds are C-contiguous float64, as pairwise_sweep makes them.
    The C loop scales the steps, so the draw is neither copied nor written to.
    """
    counts = counts.astype(np.int64, copy=False)
    eps = np.ascontiguousarray(eps)
    out = np.empty_like(pos)
    fa_sweep(len(pos), pos.shape[1], pos.ctypes.data, out.ctypes.data, counts.ctypes.data, eps.ctypes.data,
             bounds.ctypes.data, beta0, ng, elitism, synchronous)
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
    """Whether kernel gives _sweep_python's bytes on a fixed case.

    Six fireflies in a box of width 2 in three dims, with steps of scale 1,
    so moves pass both bounds; fitness [0, 1, 1, 2, 3, 4] gives one walker
    and one tie group.  Both schemes, with and without elitism.
    """
    fitness = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
    counts = np.searchsorted(fitness, fitness, side="left")
    bounds = np.repeat([-1.0, 1.0, 0.5, 1.0], 3)  # lower, upper, 1/width, alpha_t * width
    for synchronous in (False, True):
        for elitism in (False, True):
            rng = np.random.default_rng(2)
            pos = rng.uniform(-1.0, 1.0, (6, 3))
            eps = rng.standard_normal((int(counts.sum()) + (not elitism), 3))
            args = (pos, counts, eps, bounds, 0.9, -2.0, elitism, synchronous)
            if kernel(*args).tobytes() != _sweep_python(*args).tobytes():
                return False
    return True


@lru_cache(maxsize=None)
def _load_native_sweep() -> tuple[Optional[Callable], str]:
    """(the C kernel, "") if _SWEEP_C builds, loads and passes _native_agrees; else (None, why not).

    pairwise_sweep calls it at its first sweep in a process, never at
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
    fa_sweep.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5 + [ctypes.c_double] * 2 + [ctypes.c_int] * 2
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
