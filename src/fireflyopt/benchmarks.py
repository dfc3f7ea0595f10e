"""Objective registry: standard test functions and a moving-peaks landscape."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import _ROW_TWINS, Objective


# sphere is a one-row call of its row twin (core._ROW_TWINS), so the sum
# over d exists once.  Another objective gets a twin when a benchmark
# workload evaluates it enough to show the gain; four_peaks (math.exp)
# cannot have one.  Moving peaks has one, MovingPeaks.rows, which splits a
# batch at the evaluation counts where the landscape shifts.
def _sphere_rows(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=1)


def sphere(x: np.ndarray) -> float:
    return float(_sphere_rows(np.asarray(x, dtype=float).reshape(1, -1))[0])


_ROW_TWINS.append((sphere, _sphere_rows))


def rosenbrock(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def ackley(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    n = x.size
    s1 = np.sum(x * x)
    s2 = np.sum(np.cos(2.0 * np.pi * x))
    return float(-20.0 * np.exp(-0.2 * np.sqrt(s1 / n)) - np.exp(s2 / n) + 20.0 + np.e)


def griewank(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    k = np.arange(1, x.size + 1, dtype=float)
    return float(1.0 + np.sum(x * x) / 4000.0 - np.prod(np.cos(x / np.sqrt(k))))


def four_peaks(x: np.ndarray) -> float:
    """Two-dimensional landscape with two global and two shallower minima.

    Global minima of value about -2 sit at (0, 0) and (0, -4); local minima
    of value about -1 sit at (4, 4) and (-4, 4).
    """
    a, b = float(x[0]), float(x[1])
    return -(
        math.exp(-((a - 4.0) ** 2) - (b - 4.0) ** 2)
        + math.exp(-((a + 4.0) ** 2) - (b - 4.0) ** 2)
        + 2.0 * (math.exp(-a * a - b * b) + math.exp(-a * a - (b + 4.0) ** 2))
    )


FOUR_PEAKS_MINIMA = (
    np.array([0.0, 0.0]),
    np.array([0.0, -4.0]),
    np.array([4.0, 4.0]),
    np.array([-4.0, 4.0]),
)


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    fn: Callable[[np.ndarray], float]
    lower: float
    upper: float
    optimum_at: Callable[[int], np.ndarray]
    fixed_dim: Optional[int] = None


_REGISTRY: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("sphere", sphere, -5.12, 5.12, np.zeros),
        BenchmarkSpec("rosenbrock", rosenbrock, -5.0, 10.0, np.ones),
        BenchmarkSpec("rastrigin", rastrigin, -5.12, 5.12, np.zeros),
        BenchmarkSpec("ackley", ackley, -32.768, 32.768, np.zeros),
        BenchmarkSpec("griewank", griewank, -600.0, 600.0, np.zeros),
        BenchmarkSpec("four_peaks", four_peaks, -5.0, 5.0, np.zeros, fixed_dim=2),
    )
}


def benchmark_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def lookup(name: str, dim: int) -> Objective:
    """Materialize a registry entry at the requested dimensionality."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown benchmark {name!r}; known: {', '.join(_REGISTRY)}")
    spec = _REGISTRY[name]
    if spec.fixed_dim is not None and dim != spec.fixed_dim:
        raise ValueError(f"{name} is defined only for dim={spec.fixed_dim}, got {dim}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    opt_pos = spec.optimum_at(dim)
    return Objective(
        dim=dim,
        lower=np.full(dim, spec.lower),
        upper=np.full(dim, spec.upper),
        eval=spec.fn,
        known_optimum=(opt_pos, spec.fn(opt_pos)),
    )


@dataclass
class MovingPeaks:
    """Mutable state of a landscape whose cone peaks drift over time.

    Every shift_interval evaluations each peak center moves exactly
    shift_length in a fresh random direction, reflected at the bounds.
    A single run must own this state exclusively.
    """

    heights: np.ndarray
    widths: np.ndarray
    centers: np.ndarray
    shift_interval: Optional[int]
    shift_length: float
    lower: np.ndarray
    upper: np.ndarray
    rng: np.random.Generator
    evals: int = 0
    shift_log: list[int] = field(default_factory=list)

    def value(self, x: np.ndarray) -> float:
        return float(self.rows(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def rows(self, x: np.ndarray) -> np.ndarray:
        """value at every row of an (n, d) array, as n value calls in row order.

        A batch is cut where the evaluation count reaches a multiple of
        shift_interval, and the landscape shifts there, so values, evals,
        shift_log, centers and rng match the per-point sequence exactly.
        Each distance is the branch np.linalg.norm(axis=-1) takes for real
        input, without its dispatch cost: the same d-length reduction per
        row, so the same bits.  The sign flip multiplies by -1.0, exact like
        unary minus (only a NaN keeps its sign bit); unary minus runs a numpy
        loop that nothing else in a run touches, and faulting its code in
        raised a multiswarm run's peak resident size by 64 KiB.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(len(x))
        interval = self.shift_interval
        start = 0
        while start < len(x):
            stop = len(x) if interval is None else min(len(x), start + interval - self.evals % interval)
            diff = self.centers - x[start:stop, None, :]
            d = np.sqrt(np.add.reduce(diff * diff, axis=2))
            out[start:stop] = (self.heights - self.widths * d).max(axis=1) * -1.0
            self.evals += stop - start
            if interval is not None and self.evals % interval == 0:
                self._shift()
            start = stop
        return out

    def _shift(self) -> None:
        dim = self.centers.shape[1]
        for c in self.centers:
            direction = self.rng.standard_normal(dim)
            norm = float(np.linalg.norm(direction))
            while norm == 0.0:
                direction = self.rng.standard_normal(dim)
                norm = float(np.linalg.norm(direction))
            c += self.shift_length * direction / norm
            for d in range(dim):
                while c[d] < self.lower[d] or c[d] > self.upper[d]:
                    if c[d] < self.lower[d]:
                        c[d] = 2.0 * self.lower[d] - c[d]
                    else:
                        c[d] = 2.0 * self.upper[d] - c[d]
        self.shift_log.append(self.evals)


_ROW_TWINS.append((MovingPeaks.value, MovingPeaks.rows))


def make_moving_peaks(
    peak_count: int = 5,
    dim: int = 2,
    lower: float = 0.0,
    upper: float = 100.0,
    heights: Optional[np.ndarray] = None,
    widths: Optional[np.ndarray] = None,
    centers: Optional[np.ndarray] = None,
    shift_interval: Optional[int] = 5000,
    shift_length: float = 10.0,
    seed=0,
) -> Objective:
    """Dynamic objective evaluating to minus the tallest cone at a point.

    Heights, widths, and centers default to seeded uniform draws (30..70,
    1..12, and the full domain).  shift_interval=None keeps the landscape
    static forever.  Deterministic for a given seed.
    """
    if peak_count < 1:
        raise ValueError(f"peak_count must be >= 1, got {peak_count}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if shift_interval is not None and shift_interval < 1:
        raise ValueError(f"shift_interval must be >= 1 (or None), got {shift_interval}")
    if not (math.isfinite(shift_length) and shift_length > 0):
        raise ValueError(f"shift_length must be finite and > 0, got {shift_length}")
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ValueError(f"lower and upper must be finite with lower < upper, got {lower} and {upper}")
    rng = np.random.default_rng(seed)
    lo = np.full(dim, float(lower))
    hi = np.full(dim, float(upper))
    heights = rng.uniform(30.0, 70.0, peak_count) if heights is None else np.asarray(heights, float)
    widths = rng.uniform(1.0, 12.0, peak_count) if widths is None else np.asarray(widths, float)
    centers = rng.uniform(lo, hi, (peak_count, dim)) if centers is None else np.asarray(centers, float)
    if heights.shape != (peak_count,) or widths.shape != (peak_count,):
        raise ValueError("heights and widths must each have one entry per peak")
    if centers.shape != (peak_count, dim):
        raise ValueError(f"centers must have shape ({peak_count}, {dim})")
    # math.isfinite per value: np.all(np.isfinite(...)) here left about
    # 90 KiB more resident at the peak of a single-threaded multiswarm run
    for name, values in (("heights", heights), ("widths", widths), ("centers", centers)):
        if not all(map(math.isfinite, values.ravel().tolist())):
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
    if np.any(widths <= 0):
        raise ValueError("widths must be strictly positive")
    state = MovingPeaks(
        heights=heights,
        widths=widths,
        centers=centers,
        shift_interval=shift_interval,
        shift_length=float(shift_length),
        lower=lo,
        upper=hi,
        rng=rng,
    )
    return Objective(dim=dim, lower=lo, upper=hi, eval=state.value, change_hook=state)
