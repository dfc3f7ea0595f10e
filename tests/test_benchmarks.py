"""Benchmark registry definitions and the moving-peaks landscape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireflyopt import MovingPeaks, benchmark_names, lookup, make_moving_peaks
from fireflyopt.core import _row_twin

FOUR_PEAKS_AT_ORIGIN = -2.000000225070375  # -(2 + 2e^-16 + 2e^-32), high-precision arithmetic


def test_registry_names():
    assert set(benchmark_names()) == {
        "sphere",
        "rosenbrock",
        "rastrigin",
        "ackley",
        "griewank",
        "four_peaks",
    }


def test_lookup_errors():
    with pytest.raises(ValueError, match="unknown benchmark"):
        lookup("schwefel", 2)
    with pytest.raises(ValueError):
        lookup("four_peaks", 3)
    with pytest.raises(ValueError):
        lookup("sphere", 0)


def test_known_optima_validate():
    for name in benchmark_names():
        dim = 2 if name == "four_peaks" else 4
        obj = lookup(name, dim)
        pos, value = obj.known_optimum
        assert abs(float(obj.eval(pos)) - value) <= 1e-9


def test_classic_values_at_optima():
    assert lookup("sphere", 3).eval(np.zeros(3)) == 0.0
    assert lookup("rastrigin", 3).eval(np.zeros(3)) == 0.0
    assert abs(lookup("ackley", 3).eval(np.zeros(3))) < 1e-12
    assert lookup("griewank", 3).eval(np.zeros(3)) == 0.0
    assert lookup("rosenbrock", 3).eval(np.ones(3)) == 0.0


def test_four_peaks_global_minima():
    obj = lookup("four_peaks", 2)
    at_origin = obj.eval(np.array([0.0, 0.0]))
    at_lower = obj.eval(np.array([0.0, -4.0]))
    assert abs(at_origin - FOUR_PEAKS_AT_ORIGIN) < 1e-15
    assert abs(at_origin - (-2.0)) < 1e-6
    assert abs(at_lower - at_origin) < 1e-12
    # local minima are half as deep
    assert abs(obj.eval(np.array([4.0, 4.0])) - (-1.0)) < 1e-6
    assert abs(obj.eval(np.array([-4.0, 4.0])) - (-1.0)) < 1e-6


def test_all_registry_functions_finite_on_random_samples():
    rng = np.random.default_rng(17)
    for name in benchmark_names():
        dim = 2 if name == "four_peaks" else 3
        obj = lookup(name, dim)
        pts = rng.uniform(obj.lower, obj.upper, size=(10_000, dim))
        values = [obj.eval(p) for p in pts]
        assert np.all(np.isfinite(values))


def test_four_peaks_grid_scan_two_global_basins():
    # Independent vectorized evaluation of the landscape on a 0.01 grid.
    xs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    gx, gy = np.meshgrid(xs, xs)
    grid = -(
        np.exp(-((gx - 4.0) ** 2) - (gy - 4.0) ** 2)
        + np.exp(-((gx + 4.0) ** 2) - (gy - 4.0) ** 2)
        + 2.0 * (np.exp(-gx**2 - gy**2) + np.exp(-gx**2 - (gy + 4.0) ** 2))
    )
    assert grid.min() >= -2.0 - 1e-6
    low = np.argwhere(grid <= -2.0 + 1e-4)
    pts = np.column_stack([gx[low[:, 0], low[:, 1]], gy[low[:, 0], low[:, 1]]])
    assert len(pts) > 0
    top = np.array([0.0, 0.0])
    bottom = np.array([0.0, -4.0])
    near_top = np.linalg.norm(pts - top, axis=1) < 0.2
    near_bottom = np.linalg.norm(pts - bottom, axis=1) < 0.2
    assert near_top.any() and near_bottom.any()
    assert np.all(near_top | near_bottom)  # no third basin reaches the global level

    # the package implementation agrees with the grid oracle pointwise
    obj = lookup("four_peaks", 2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        i, j = rng.integers(0, len(xs), 2)
        assert abs(obj.eval(np.array([xs[j], xs[i]])) - grid[i, j]) < 1e-12


# ------------------------------------------------------------ moving peaks


def test_moving_peaks_static_when_interval_none():
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=None, seed=1)
    x = np.array([10.0, 20.0])
    first = obj.eval(x)
    for _ in range(500):
        assert obj.eval(x) == first
    assert obj.change_hook.shift_log == []


def test_moving_peaks_value_at_tallest_center():
    heights = np.array([50.0, 30.0])
    widths = np.array([2.0, 2.0])
    centers = np.array([[20.0, 20.0], [80.0, 80.0]])
    obj = make_moving_peaks(
        peak_count=2, dim=2, heights=heights, widths=widths, centers=centers,
        shift_interval=None, seed=0,
    )
    assert obj.eval(np.array([20.0, 20.0])) == -50.0
    assert obj.eval(np.array([80.0, 80.0])) == -30.0


def test_moving_peaks_shift_distance_and_log():
    centers = np.full((4, 2), 50.0)
    obj = make_moving_peaks(
        peak_count=4, dim=2, centers=centers.copy(), shift_interval=10, shift_length=3.0, seed=5,
    )
    x = np.zeros(2)
    for _ in range(10):
        obj.eval(x)
    moved = obj.change_hook.centers
    for before, after in zip(centers, moved):
        assert abs(np.linalg.norm(after - before) - 3.0) < 1e-9
    assert obj.change_hook.shift_log == [10]
    for _ in range(10):
        obj.eval(x)
    assert obj.change_hook.shift_log == [10, 20]


def test_moving_peaks_reflection_keeps_centers_inside():
    centers = np.array([[0.5, 99.5]])
    obj = make_moving_peaks(
        peak_count=1, dim=2, centers=centers, shift_interval=1, shift_length=25.0, seed=9,
    )
    for _ in range(200):
        obj.eval(np.array([1.0, 1.0]))
        c = obj.change_hook.centers[0]
        assert np.all(c >= 0.0) and np.all(c <= 100.0)


def test_moving_peaks_deterministic():
    xs = np.random.default_rng(2).uniform(0, 100, size=(300, 2))
    a = make_moving_peaks(peak_count=5, dim=2, shift_interval=50, seed=12)
    b = make_moving_peaks(peak_count=5, dim=2, shift_interval=50, seed=12)
    for x in xs:
        assert a.eval(x) == b.eval(x)
    assert a.change_hook.shift_log == b.change_hook.shift_log


def _norm_formula_value(state, x):
    """MovingPeaks.value written with np.linalg.norm(axis=1) and np.max."""
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(state.centers - x, axis=1)
    out = float(-np.max(state.heights - state.widths * d))
    state.evals += 1
    if state.shift_interval is not None and state.evals % state.shift_interval == 0:
        state._shift()
    return out


@pytest.mark.parametrize("dim", [1, 5, 30])
def test_moving_peaks_value_matches_norm_formula(dim):
    obj = make_moving_peaks(peak_count=5, dim=dim, shift_interval=300, seed=dim)
    twin = make_moving_peaks(peak_count=5, dim=dim, shift_interval=300, seed=dim).change_hook
    rng = np.random.default_rng(100 + dim)
    xs = np.concatenate([rng.uniform(0.0, 100.0, size=(995, dim)), obj.change_hook.centers.copy()])
    got = np.array([obj.eval(x) for x in xs])
    want = np.array([_norm_formula_value(twin, x) for x in xs])
    assert got.tobytes() == want.tobytes()
    state = obj.change_hook
    assert state.evals == twin.evals == 1000
    assert state.shift_log == twin.shift_log == [300, 600, 900]
    assert state.centers.tobytes() == twin.centers.tobytes()


def test_moving_peaks_validation():
    with pytest.raises(ValueError):
        make_moving_peaks(peak_count=2, widths=np.array([1.0, 0.0]), seed=0)
    with pytest.raises(ValueError):
        make_moving_peaks(peak_count=0, seed=0)
    with pytest.raises(ValueError):
        make_moving_peaks(shift_length=0.0, seed=0)
    for sizes in ({"heights": np.ones(3)}, {"widths": np.ones(1)}):
        with pytest.raises(ValueError, match="^heights and widths must each have one entry per peak$"):
            make_moving_peaks(peak_count=2, dim=2, seed=0, **sizes)
    with pytest.raises(ValueError, match=r"^centers must have shape \(2, 3\)$"):
        make_moving_peaks(peak_count=2, dim=3, centers=np.zeros((2, 2)), seed=0)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("dim", {"dim": 0}),
        ("dim", {"dim": -1}),
        ("shift_length", {"shift_length": math.nan}),
        ("shift_length", {"shift_length": math.inf}),
        ("shift_length", {"shift_length": -math.inf}),
        ("heights", {"heights": np.array([50.0, math.nan])}),
        ("heights", {"heights": np.array([math.inf, 50.0])}),
        ("widths", {"widths": np.array([math.nan, 2.0])}),
        ("widths", {"widths": np.array([2.0, math.inf])}),
        ("centers", {"centers": np.array([[10.0, math.nan], [20.0, 20.0]])}),
        ("centers", {"centers": np.array([[10.0, 10.0], [-math.inf, 20.0]])}),
        ("lower", {"lower": math.nan}),
        ("upper", {"upper": math.inf}),
        ("lower", {"lower": 200.0}),
        ("lower", {"lower": 5.0, "upper": 5.0}),
    ],
)
def test_moving_peaks_rejects_invalid_inputs_by_name(name, kwargs):
    # each of these used to be accepted and failed later: dim 0 mid-run,
    # the rest as non-finite values, or non-finite centers after a shift;
    # the bounds failed in numpy's uniform draw or in Objective, unnamed
    with pytest.raises(ValueError, match=name):
        make_moving_peaks(**{"peak_count": 2, "dim": 2, "seed": 0, **kwargs})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    peak_count=st.integers(1, 6),
    dim=st.sampled_from([1, 2, 5, 30]),
    shift_interval=st.one_of(st.none(), st.integers(1, 50)),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_moving_peaks_rows_match_value_calls(peak_count, dim, shift_interval, sizes, seed):
    """rows on one landscape equals value, and the norm formula, on twin landscapes, bit for bit."""
    landscapes = [
        make_moving_peaks(peak_count=peak_count, dim=dim, shift_interval=shift_interval, shift_length=7.0,
                          seed=seed).change_hook
        for _ in range(3)
    ]
    rng = np.random.default_rng(seed)
    # inside the box, around it, and on the current centers
    batches = [rng.uniform(-20.0, 120.0, size=(n, dim)) for n in sizes]
    batches[0][: peak_count] = landscapes[0].centers[: len(batches[0])]
    batched, looped, norm = landscapes
    got = [v for batch in batches for v in batched.rows(batch).tolist()]
    want = [looped.value(x) for batch in batches for x in batch]
    oracle = [_norm_formula_value(norm, x) for batch in batches for x in batch]
    assert np.array(got).tobytes() == np.array(want).tobytes() == np.array(oracle).tobytes()
    for other in (looped, norm):
        assert batched.evals == other.evals == sum(sizes)
        assert batched.shift_log == other.shift_log
        assert batched.centers.tobytes() == other.centers.tobytes()
        assert batched.rng.bit_generator.state == other.rng.bit_generator.state


# ------------------------------------------------------------- row twins

# name -> its per-point formula, written out: the oracle that both the row
# twin and the registry function (a one-row call of the twin) must match
BATCHED = {"sphere": lambda x: float(np.sum(x * x))}


def test_row_twins_cover_exactly_the_batched_objectives():
    for name in benchmark_names():
        assert (_row_twin(lookup(name, 2).eval) is not None) == (name in BATCHED)
    # moving peaks: its bound value method gets rows bound to the same landscape
    obj = make_moving_peaks(seed=0)
    twin = _row_twin(obj.eval)
    assert twin.__func__ is MovingPeaks.rows and twin.__self__ is obj.change_hook


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCHED)),
    n=st.sampled_from([1, 2, 7, 25, 40]),
    # 8-9 and 128-129 straddle numpy's pairwise-summation block sizes
    dim=st.one_of(st.sampled_from([1, 2, 8, 9, 16, 17, 128, 129]), st.integers(1, 200)),
    scale_exp=st.integers(-6, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_twin_matches_per_point_calls(name, n, dim, scale_exp, seed):
    obj = lookup(name, dim)
    rng = np.random.default_rng(seed)
    # inside the box, near the optimum, and far outside it
    x = obj.known_optimum[0] + 10.0**scale_exp * obj.width * rng.standard_normal((n, dim))
    got = _row_twin(obj.eval)(x)
    assert got.shape == (n,)
    want = [BATCHED[name](row) for row in x]
    assert all(type(v) is float for v in got.tolist())
    assert np.array(got.tolist()).tobytes() == np.array(want).tobytes()
    assert np.array([obj.eval(row) for row in x]).tobytes() == np.array(want).tobytes()
