"""Equation kernels, population machinery, and the generational loop."""

import contextlib
import copy
import functools
import math
import os
import re
import shutil
import sysconfig
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import step_oracle
from sweep_oracle import sweep_scalar

from fireflyopt import core
from fireflyopt import (
    EvaluationError,
    FaParams,
    Firefly,
    MovingPeaks,
    Objective,
    PenaltySpec,
    ScheduleDescriptor,
    SwarmState,
    attractiveness,
    distance,
    elitist_best_move,
    evaluate,
    find_best,
    global_best_pull_step,
    initialize,
    intensity_at,
    lookup,
    make_moving_peaks,
    move_firefly,
    order,
    pairwise_sweep,
    penalty_wrap,
    run,
    step,
)

E_MINUS_1 = 0.36787944117144233  # e^-1, high-precision arithmetic
TWO_E_MINUS_2 = 0.27067056647322538  # 2*e^-2


def unit_objective(dim=2, lo=0.0, hi=1.0, fn=None):
    fn = fn if fn is not None else lambda x: float(np.sum(x * x))
    return Objective(dim=dim, lower=np.full(dim, lo), upper=np.full(dim, hi), eval=fn)


# ---------------------------------------------------------------- equations


def test_intensity_at_examples():
    assert intensity_at(5.0, 1.0, 0.0) == 5.0
    assert intensity_at(1.0, 0.0, 7.0) == 1.0
    assert abs(intensity_at(1.0, 1.0, 1.0) - E_MINUS_1) < 1e-15


def test_attractiveness_examples():
    assert attractiveness(1.0, 3.0, 0.0) == 1.0
    assert attractiveness(0.0, 1.0, 2.0) == 0.0
    assert abs(attractiveness(2.0, 0.5, 2.0) - TWO_E_MINUS_2) < 1e-15


@pytest.mark.parametrize("fn", [intensity_at, attractiveness])
def test_kernel_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        fn(1.0, -1.0, 0.5)


def test_intensity_attractiveness_proportionality():
    rng = np.random.default_rng(0)
    for _ in range(200):
        gamma = rng.uniform(0.0, 10.0)
        r = rng.uniform(0.0, 5.0)
        beta0 = rng.uniform(0.1, 4.0)
        i0 = rng.uniform(0.1, 4.0)
        lhs = attractiveness(beta0, gamma, r) / beta0
        rhs = intensity_at(i0, gamma, r) / i0
        assert abs(lhs - rhs) < 1e-12


def test_monotone_absorption():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r1, r2 = sorted(rng.uniform(0.0, 5.0, 2))
        gamma = rng.uniform(0.01, 10.0)
        assert attractiveness(1.5, gamma, r1) >= attractiveness(1.5, gamma, r2)
        if r1 < r2:
            assert attractiveness(1.5, gamma, r1) > attractiveness(1.5, gamma, r2)


def test_gamma_zero_constant_attractiveness():
    rng = np.random.default_rng(2)
    values = {attractiveness(2.0, 0.0, r) for r in rng.uniform(0.0, 100.0, 100)}
    assert values == {2.0}


def test_distance():
    assert distance((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.normal(size=(2, 4))
        assert distance(a, b) == distance(b, a)
        assert distance(a, b) >= 0.0
    with pytest.raises(ValueError):
        distance((1.0, 2.0), (1.0, 2.0, 3.0))


# ------------------------------------------------------------ move_firefly


def test_move_zero_attraction_zero_noise_is_identity():
    params = FaParams(alpha=0.0, beta0=0.0, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.3, 0.4]), fitness=2.0)
    sj = Firefly(np.array([0.9, 0.1]), fitness=1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.array_equal(out, si.position)


def test_move_full_attraction_lands_on_target():
    params = FaParams(alpha=0.0, beta0=1.0, gamma=0.0, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.0, 0.0]), fitness=2.0)
    sj = Firefly(np.array([1.0, 2.0]), fitness=1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.array_equal(out, sj.position)


def test_move_extreme_absorption_stays_put():
    # unit domain widths, so the normalized separation is exactly 1
    params = FaParams(alpha=0.0, beta0=1.0, gamma=1e6, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.0, 0.0]), fitness=2.0)
    sj = Firefly(np.array([0.6, 0.8]), fitness=1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.all(np.abs(out - si.position) < 1e-6)


def test_move_dimension_mismatch():
    params = FaParams(pop_size=2, max_fes=2)
    si = Firefly(np.zeros(2), 1.0)
    sj = Firefly(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))


def _one_pair_formula(si, sj, params, alpha, eps, w):
    """move_firefly's update as written before it called core.pull_rows."""
    diff = sj - si
    nd = diff / w
    beta = params.beta0 * math.exp(-params.gamma * float(nd @ nd))
    return si + beta * diff + alpha * eps * w


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 5, 30]),
    rows=st.integers(1, 8),
    gamma=st.sampled_from([0.0, 0.1, 1.0, 100.0]),
    beta0=st.sampled_from([0.0, 0.5, 1.0]),
    alpha=st.sampled_from([0.0, 1e-3, 0.2, 3.0]),
    kind=st.sampled_from(["gaussian", "uniform_centered"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_rows_matches_one_pair_formula(dim, rows, gamma, beta0, alpha, kind, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 20.0, dim)
    params = FaParams(alpha=alpha, beta0=beta0, gamma=gamma, epsilon_kind=kind)
    si, sj = rng.uniform(-10.0, 10.0, (2, dim))
    stream, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    got = move_firefly(Firefly(si), Firefly(sj), params, w, stream)
    eps = core._draw_eps_rows(replay, 1, dim, params)[0]
    assert got.tobytes() == _one_pair_formula(si, sj, params, alpha, eps, w).tobytes()
    assert stream.bit_generator.state == replay.bit_generator.state
    # every row of a batch gets the one-pair formula's bits
    pos = rng.uniform(-10.0, 10.0, (rows, dim))
    eps = rng.standard_normal((rows, dim))
    batch = core.pull_rows(pos, sj, params, 0.5 * alpha, eps, w)
    for row, e, out in zip(pos, eps, batch):
        assert out.tobytes() == _one_pair_formula(row, sj, params, 0.5 * alpha, e, w).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 60),
    dim=st.integers(1, 60),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_rows_r2_matches_the_per_row_dot(rows, dim, scale, gamma, seed):
    # pull_rows takes every row's r^2 from one stacked matmul; each beta, and
    # so each moved row, must keep the bits of the per-row dot product r @ r
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 20.0, dim)
    params = FaParams(beta0=0.7, gamma=gamma)
    pos, target = rng.uniform(-scale, scale, (rows, dim)), rng.uniform(-scale, scale, dim)
    eps = rng.standard_normal((rows, dim))
    nd = (target - pos) / w
    beta = params.beta0 * np.array([math.exp(-gamma * float(r @ r)) for r in nd])
    expected = pos + beta[:, None] * (target - pos) + 0.2 * eps * w
    assert core.pull_rows(pos, target, params, 0.2, eps, w).tobytes() == expected.tobytes()


# ------------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ValueError):
        FaParams(alpha=-0.1)
    with pytest.raises(ValueError):
        FaParams(beta0=-1.0)
    with pytest.raises(ValueError):
        FaParams(gamma=-2.0)
    with pytest.raises(ValueError):
        FaParams(pop_size=0)
    with pytest.raises(ValueError):
        FaParams(pop_size=10, max_fes=9)
    with pytest.raises(ValueError):
        FaParams(epsilon_kind="cauchy")
    with pytest.raises(ValueError):
        FaParams(update_scheme="eventual")
    # a schedule that starts elsewhere than alpha: the run stepped at
    # alpha0 while move_firefly moved at alpha
    with pytest.raises(ValueError, match=r"^alpha \(0\.5\) and alpha_schedule\.alpha0 \(0\.2\) disagree; "
                                         r"alpha_schedule=None rebuilds"):
        replace(FaParams(), alpha=0.5)
    with pytest.raises(ValueError, match=r"^alpha \(0\.5\) and alpha_schedule\.alpha0 \(0\.1\) disagree"):
        FaParams(alpha=0.5, alpha_schedule=ScheduleDescriptor("constant", 0.1))
    assert replace(FaParams(), alpha=0.5, alpha_schedule=None).alpha_schedule.alpha0 == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta0", "gamma"])
def test_params_reject_non_finite(name, bad):
    # alpha inf pinned every position to the bounds; gamma nan failed
    # mid-run with an EvaluationError that blamed the objective
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FaParams(**{name: bad})


@pytest.mark.parametrize("lam", [1.0, 3.0, 0.5, math.nan, math.inf])
def test_params_reject_levy_lambda_outside_its_range(lam):
    with pytest.raises(ValueError, match=r"levy_lambda must lie in \(1, 3\), got"):
        FaParams(epsilon_kind="levy", levy_lambda=lam)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(dim=2, lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]), eval=lambda x: 0.0)
    with pytest.raises(ValueError, match=r"^bounds must have shape \(2,\)$"):
        Objective(dim=2, lower=np.zeros(3), upper=np.ones(2), eval=lambda x: 0.0)
    with pytest.raises(ValueError):
        Objective(
            dim=1,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
            eval=lambda x: float(x[0]),
            known_optimum=(np.array([0.5]), 0.0),
        )


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_objective_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match=r"bounds must be finite, got lower=\[.*inf"):
        Objective(dim=2, lower=np.array([lo, 0.0]), upper=np.array([hi, 1.0]), eval=lambda x: 0.0)


@pytest.mark.parametrize("dim", [0, -1, 2.0, "3", True, None])
def test_objective_rejects_a_dim_that_is_not_a_positive_int(dim):
    with pytest.raises(ValueError, match="dim must be an int >= 1"):
        Objective(dim=dim, lower=np.empty(0), upper=np.empty(0), eval=lambda x: 0.0)


def test_objective_accepts_a_numpy_integer_dim():
    obj = Objective(dim=np.int64(2), lower=np.zeros(2), upper=np.ones(2), eval=lambda x: 0.0)
    assert obj.width.shape == (2,)


# ------------------------------------------------------------- initialize


def test_initialize_deterministic():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=10, max_fes=100)
    a = initialize(obj, params, 42)
    b = initialize(obj, params, 42)
    for fa, fb in zip(a.fireflies, b.fireflies):
        assert np.array_equal(fa.position, fb.position)
    assert a.t == 0 and a.fes_used == 0 and a.best is None


def test_initialize_in_bounds_and_unset_fitness():
    obj = lookup("rosenbrock", 3)
    state = initialize(obj, FaParams(pop_size=50, max_fes=100), 7)
    for fly in state.fireflies:
        assert np.all(fly.position >= obj.lower) and np.all(fly.position <= obj.upper)
        assert math.isnan(fly.fitness)


def test_initialize_uniform_sample_mean():
    obj = unit_objective(dim=3)
    state = initialize(obj, FaParams(pop_size=10_000, max_fes=10_000), 5)
    pos = np.array([f.position for f in state.fireflies])
    means = pos.mean(axis=0)
    assert np.all(means > 0.45) and np.all(means < 0.55)


# --------------------------------------------------------------- evaluate


def test_evaluate_sphere_at_origin():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=2, max_fes=100)
    state = initialize(obj, params, 0)
    state.positions[0] = 0.0
    evaluate(state, obj, params)
    assert state.fireflies[0].fitness == 0.0
    assert state.best.fitness == 0.0
    assert state.fes_used == 2


def test_evaluate_budget_arithmetic():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=40, max_fes=100)
    state = initialize(obj, params, 1)
    evaluate(state, obj, params)
    assert state.fes_used == 40
    evaluate(state, obj, params)
    assert state.fes_used == 80
    evaluate(state, obj, params)
    assert state.fes_used == 100  # only 20 evaluations left on the third pass


def test_evaluate_past_the_budget_evaluates_nothing():
    calls = []
    obj = Objective(dim=2, lower=np.zeros(2), upper=np.ones(2), eval=lambda x: calls.append(1) or 0.0)
    params = FaParams(pop_size=5, max_fes=10)
    state = initialize(obj, params, 0)
    state.fes_used = 12  # sentinel probes can push a swarm past its budget
    evaluate(state, obj, params)
    assert state.fes_used == 12
    assert np.isnan(state.fitness).all() and state.best is None
    assert calls == []


def test_evaluate_best_monotone():
    obj = lookup("rastrigin", 3)
    params = FaParams(pop_size=8, max_fes=10_000)
    state = initialize(obj, params, 3)
    evaluate(state, obj, params)
    previous = state.best.fitness
    rng = np.random.default_rng(9)
    for _ in range(10):
        state.positions[:] = rng.uniform(obj.lower, obj.upper, size=state.positions.shape)
        evaluate(state, obj, params)
        assert state.best.fitness <= previous
        previous = state.best.fitness


def test_evaluate_nan_aborts_with_position():
    obj = unit_objective(fn=lambda x: math.nan)
    params = FaParams(pop_size=2, max_fes=10)
    state = initialize(obj, params, 0)
    with pytest.raises(EvaluationError) as err:
        evaluate(state, obj, params)
    assert str(state.fireflies[0].position.tolist()) in str(err.value)


def _per_point(obj):
    """obj with its eval wrapped, so evaluate takes the per-point path."""
    fn = obj.eval
    return Objective(dim=obj.dim, lower=obj.lower, upper=obj.upper, eval=lambda x: fn(x))


def _evaluate_both(obj, pop, remaining, positions, prior_best):
    """Run evaluate on the batch path and on the per-point path from equal states."""
    params = FaParams(pop_size=pop, max_fes=pop + remaining)
    results = []
    for objective in (obj, _per_point(obj)):
        state = initialize(objective, params, 0)
        state.positions[:] = positions
        state.fes_used = params.max_fes - remaining
        state.best = None if prior_best is None else prior_best.copy()
        try:
            evaluate(state, objective, params)
        except EvaluationError as exc:
            results.append(str(exc))
        else:
            results.append(state)
    return results


@contextlib.contextmanager
def _registered_twin(fn, rows):
    """fn registered with row twin rows for the duration of the block."""
    core._ROW_TWINS.append((fn, rows))
    try:
        yield
    finally:
        core._ROW_TWINS.remove((fn, rows))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    pop=st.integers(1, 30),
    dim=st.sampled_from([1, 2, 5, 10]),
    partial=st.booleans(),
    mirrored=st.integers(0, 5),
    prior=st.sampled_from([None, "row", "unbeatable"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_batch_path_matches_per_point_path(pop, dim, partial, mirrored, prior, seed):
    obj = lookup("sphere", dim)
    assert core._row_twin(obj.eval) is not None
    rng = np.random.default_rng(seed)
    positions = rng.uniform(obj.lower, obj.upper, size=(pop, dim))
    # x and -x tie on sphere, so a strict < must keep the first
    for _ in range(mirrored):
        positions[rng.integers(pop)] = -positions[rng.integers(pop)]
    remaining = int(rng.integers(1, pop + 1)) if partial else pop
    prior_best = None
    if prior == "row":
        prior_best = Firefly(positions[rng.integers(pop)].copy(), obj.eval(positions[rng.integers(pop)]))
    elif prior == "unbeatable":
        prior_best = Firefly(np.zeros(dim), -math.inf)

    batch, per_point = _evaluate_both(obj, pop, remaining, positions, prior_best)
    fitness = [[f.fitness for f in s.fireflies] for s in (batch, per_point)]
    assert np.array(fitness[0]).tobytes() == np.array(fitness[1]).tobytes()
    assert all(math.isnan(v) for v in fitness[0][remaining:])
    assert batch.fes_used == per_point.fes_used == pop + remaining
    assert batch.best.fitness == per_point.best.fitness
    assert batch.best.position.tobytes() == per_point.best.position.tobytes()
    assert all(type(v) is float for v in fitness[0])


def _poisoned_sphere(cutoff, bad):
    """Sphere that returns bad at and beyond cutoff, and a row twin doing the same."""

    def fn(x):
        value = float(np.sum(x * x))
        return value if value < cutoff else bad

    def rows(x):
        values = np.sum(x * x, axis=1)
        return np.where(values < cutoff, values, bad)

    return fn, rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    pop=st.integers(1, 25),
    partial=st.booleans(),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_batch_path_raises_like_per_point_path(bad, pop, partial, share, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, size=(pop, 3))
    remaining = int(rng.integers(1, pop + 1)) if partial else pop
    values = np.sum(positions[:remaining] ** 2, axis=1)
    cutoff = float(np.quantile(values, 1.0 - share))
    fn, rows = _poisoned_sphere(cutoff, bad)
    obj = unit_objective(dim=3, lo=-1.0, hi=1.0, fn=fn)
    with _registered_twin(fn, rows):
        batch, per_point = _evaluate_both(obj, pop, remaining, positions, None)
    # the largest refreshed value always reaches the cutoff, so both raise
    assert isinstance(batch, str) and batch == per_point
    first = next(i for i, v in enumerate(values) if v >= cutoff)
    assert batch == f"objective returned {bad} at position {positions[first].tolist()}"


def test_checked_rows_names_a_nan_in_a_middle_row():
    fn, rows = _poisoned_sphere(math.inf, math.nan)
    obj = unit_objective(dim=3, fn=fn)
    positions = np.full((5, 3), 0.1)
    positions[2] = positions[3] = 0.2
    with _registered_twin(fn, lambda x: np.where(x[:, 0] == 0.2, math.nan, rows(x))):
        with pytest.raises(EvaluationError, match=re.escape(f"returned nan at position {positions[2].tolist()}")):
            core.checked_rows(obj, positions)


def test_checked_rows_passes_finite_values_whose_sum_overflows():
    values = [1e308, 1e308, -1.0]

    def fn(x):
        return values[int(x[0])]

    obj = unit_objective(dim=1, lo=0.0, hi=3.0, fn=fn)
    positions = np.arange(3.0)[:, None]
    assert math.isinf(sum(values))
    assert core.checked_rows(obj, positions) == values
    with _registered_twin(fn, lambda x: np.array(values)):
        assert core.checked_rows(obj, positions) == values


def test_evaluate_takes_the_batch_path_once_per_pass():
    calls = []
    fn, rows = _poisoned_sphere(math.inf, math.nan)
    obj = unit_objective(dim=3, fn=fn)
    params = FaParams(pop_size=4, max_fes=10)
    state = initialize(obj, params, 0)
    with _registered_twin(fn, lambda x: calls.append(x.shape) or rows(x)):
        for _ in range(3):
            evaluate(state, obj, params)
    assert calls == [(4, 3), (4, 3), (2, 3)]
    assert state.fes_used == 10


def test_evaluate_wrappers_of_a_batched_function_keep_the_per_point_path():
    # functools.wraps copies sphere's attributes; a callable may carry an
    # unrelated `rows`.  Neither is sphere, so every call goes through it.
    sphere = lookup("sphere", 3).eval
    calls = []

    @functools.wraps(sphere)
    def shifted(x):
        calls.append(1)
        return sphere(x) + 1.0

    class WithRows:
        rows = staticmethod(lambda x: np.zeros(len(x)))

        def __call__(self, x):
            calls.append(1)
            return sphere(x) + 1.0

    params = FaParams(pop_size=5, max_fes=5)
    for fn in (shifted, WithRows()):
        calls.clear()
        obj = unit_objective(dim=3, fn=fn)
        state = initialize(obj, params, 0)
        evaluate(state, obj, params)
        assert len(calls) == 5
        assert [f.fitness for f in state.fireflies] == [sphere(f.position) + 1.0 for f in state.fireflies]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    pop=st.integers(2, 30),
    shift=st.integers(0, 28),
    dim=st.sampled_from([1, 2, 5]),
    generations=st.integers(1, 6),
    tail=st.integers(0, 29),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_batch_path_matches_per_point_path_across_shifts(pop, shift, dim, generations, tail, seed):
    # shift_interval below pop, so the first shift lands inside the first pass
    shift_interval = 1 + shift % (pop - 1)
    landscapes = [
        make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval, shift_length=15.0, seed=seed)
        for _ in range(2)
    ]
    batched, per_point = landscapes[0], _per_point(landscapes[1])
    assert core._row_twin(batched.eval) is not None and core._row_twin(per_point.eval) is None
    # a tail shorter than pop ends the run on a partial pass
    params = FaParams(pop_size=pop, max_fes=pop * generations + tail % pop)
    a, b = run(batched, params, seed), run(per_point, params, seed)
    assert np.array(a.trace).tobytes() == np.array(b.trace).tobytes()
    assert a.final_best.position.tobytes() == b.final_best.position.tobytes()
    first, second = (obj.change_hook for obj in landscapes)
    assert first.evals == second.evals == params.max_fes
    assert first.shift_log == second.shift_log and first.shift_log[0] % pop != 0
    assert first.centers.tobytes() == second.centers.tobytes()
    assert first.rng.bit_generator.state == second.rng.bit_generator.state


def test_evaluate_wrappers_of_moving_peaks_keep_the_per_point_path():
    # a penalty closure, a functools.wraps copy of the bound value method and
    # a subclass overriding value each see every call, in order, across a
    # shift inside the pass
    calls = []

    def landscape():
        return make_moving_peaks(peak_count=3, dim=2, shift_interval=3, seed=4)

    copied_from = landscape()

    @functools.wraps(copied_from.eval)
    def copied(x):
        calls.append(1)
        return copied_from.eval(x)

    class Overridden(MovingPeaks):
        def value(self, x):
            calls.append(1)
            return super().value(x)

    def feasible(x):
        calls.append(1)
        return -1.0

    penalized = penalty_wrap(landscape(), PenaltySpec(constraints=(feasible,)))
    overridden = Overridden(**vars(landscape().change_hook))
    params = FaParams(pop_size=5, max_fes=10)
    for fn in (penalized.eval, copied, overridden.value):
        assert core._row_twin(fn) is None
        calls.clear()
        obj = Objective(dim=2, lower=penalized.lower, upper=penalized.upper, eval=fn)
        state = initialize(obj, params, 0)
        evaluate(state, obj, params)
        oracle = landscape().change_hook
        assert len(calls) == 5
        assert [f.fitness for f in state.fireflies] == [oracle.value(f.position) for f in state.fireflies]


def test_evaluate_batch_path_uses_a_subclass_override_of_rows():
    # the inherited value calls the override, so the batched path must too
    class Doubled(MovingPeaks):
        def rows(self, x):
            return super().rows(x) * 2.0

    def landscape():
        return Doubled(**vars(make_moving_peaks(peak_count=3, dim=2, shift_interval=3, seed=4).change_hook))

    sub, oracle = landscape(), landscape()
    assert core._row_twin(sub.value).__func__ is Doubled.rows
    obj = Objective(dim=2, lower=np.zeros(2), upper=np.full(2, 100.0), eval=sub.value)
    params = FaParams(pop_size=5, max_fes=10)
    state = initialize(obj, params, 0)
    evaluate(state, obj, params)
    assert state.fitness.tobytes() == np.array([oracle.value(p) for p in state.positions]).tobytes()


# ------------------------------------------------------------ order, best


def _state_with_fitness(values):
    positions = np.array([[float(i), 0.0] for i in range(len(values))]).reshape(-1, 2)
    return SwarmState(positions, np.array(values, dtype=float), t=0, fes_used=0, best=None,
                      rng=np.random.default_rng(0))


def test_order_sorts_ascending():
    state = _state_with_fitness([3.0, 1.0, 2.0])
    order(state)
    assert [f.fitness for f in state.fireflies] == [1.0, 2.0, 3.0]


def test_order_stability_and_idempotence():
    state = _state_with_fitness([2.0, 2.0, 2.0])
    marks = [f.position[0] for f in state.fireflies]
    order(state)
    assert [f.position[0] for f in state.fireflies] == marks
    state2 = _state_with_fitness([1.0, 2.0, 3.0])
    order(state2)
    assert [f.fitness for f in state2.fireflies] == [1.0, 2.0, 3.0]


def test_order_rejects_unevaluated():
    state = _state_with_fitness([1.0, 2.0])
    state.fitness[1] = math.nan
    with pytest.raises(ValueError):
        order(state)


def test_find_best_picks_minimum_and_retains_history():
    state = _state_with_fitness([3.0, 1.0, 2.0])
    best = find_best(state)
    assert best.fitness == 1.0
    assert state.best.fitness == 1.0
    state.best = Firefly(np.zeros(2), 4.0)
    state.fitness += 4.0  # current generation best becomes 5.0
    find_best(state)
    assert state.best.fitness == 4.0


def test_find_best_single_and_empty():
    state = _state_with_fitness([7.0])
    assert find_best(state).fitness == 7.0
    empty = _state_with_fitness([])
    with pytest.raises(ValueError):
        find_best(empty)


def _elitist_sweep(state, objective, params, alpha_t):
    pairwise_sweep(state, objective, params, alpha_t)
    elitist_best_move(state, 3, params, objective, alpha=alpha_t)


def _pull_sweep(state, objective, params, alpha_t):
    global_best_pull_step(state, objective, params, alpha=alpha_t)


@pytest.mark.parametrize("move", [pairwise_sweep, _elitist_sweep, _pull_sweep])
@pytest.mark.parametrize("name, dim", [("rastrigin", 3), ("sphere", 2)])
def test_step_leaves_find_best_nothing_to_reconcile(move, name, dim):
    # step does not call find_best: the evaluation of step_swarms
    # (_evaluate_swarms) reconciles each value it computes, so find_best never
    # replaces the best, before the move or after the partial final pass
    obj = lookup(name, dim)
    params = FaParams(pop_size=7, max_fes=7 * 40 + 4, elitism=move is _elitist_sweep)

    def reconciled(state):
        best = state.best
        find_best(state)
        return state.best is best

    def checked_move(state, objective, params, alpha_t):
        assert reconciled(state)
        move(state, objective, params, alpha_t)

    state = initialize(obj, params, 3)
    while state.fes_used < params.max_fes:
        step(state, obj, params, sweep=checked_move)
        assert reconciled(state)


# ------------------------------------------------------------------- step


def test_step_looks_up_alpha_once_per_generation_that_moves(monkeypatch):
    # 40 whole passes move; the 41st, cut to 4 rows, spends the budget and
    # does not move, so it is not scheduled (it was, before the evaluation)
    looked_up, original = [], core.alpha_at
    monkeypatch.setattr(core, "alpha_at", lambda schedule, t: looked_up.append(t) or original(schedule, t))
    report = run(lookup("sphere", 2), FaParams(pop_size=7, max_fes=7 * 40 + 4), 3)
    assert looked_up == list(range(40)) and report.trace[-1][:2] == (40, 284)


def test_step_single_firefly_with_elitism_holds():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=1, max_fes=10, elitism=True)
    state = initialize(obj, params, 0)
    before = state.fireflies[0].position.copy()
    step(state, obj, params)
    assert np.array_equal(state.fireflies[0].position, before)
    assert state.t == 1


def test_step_null_dynamics():
    obj = lookup("sphere", 3)
    params = FaParams(alpha=0.0, beta0=0.0, pop_size=5, max_fes=100)
    state = initialize(obj, params, 4)
    before = sorted(tuple(f.position) for f in state.fireflies)
    step(state, obj, params)
    after = sorted(tuple(f.position) for f in state.fireflies)
    assert before == after


def test_step_deterministic():
    obj = lookup("rastrigin", 2)
    params = FaParams(pop_size=6, max_fes=600)
    s1 = initialize(obj, params, 11)
    s2 = initialize(obj, params, 11)
    for _ in range(5):
        step(s1, obj, params)
        step(s2, obj, params)
    for f1, f2 in zip(s1.fireflies, s2.fireflies):
        assert np.array_equal(f1.position, f2.position)
    assert s1.fes_used == s2.fes_used and s1.best.fitness == s2.best.fitness


def test_step_raises_when_budget_spent():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=5, max_fes=5)
    state = initialize(obj, params, 0)
    step(state, obj, params)
    with pytest.raises(ValueError):
        step(state, obj, params)


def test_step_matches_manual_move_composition():
    # pop=2: the brighter firefly random-walks, then the dimmer one moves
    # toward the walker's updated position (asynchronous visibility).
    obj = unit_objective(dim=2, lo=-10.0, hi=10.0)
    schedule = ScheduleDescriptor("constant", alpha0=0.05)
    params = FaParams(alpha=0.05, pop_size=2, max_fes=100, alpha_schedule=schedule)
    state = initialize(obj, params, 21)
    step(state, obj, params)

    rng_expected = np.random.default_rng(21)
    pos = rng_expected.uniform(obj.lower, obj.upper, size=(2, 2))
    fit = [obj.eval(pos[0]), obj.eval(pos[1])]
    sorted_idx = sorted(range(2), key=lambda i: fit[i])
    bright, dim_ = pos[sorted_idx[0]].copy(), pos[sorted_idx[1]].copy()
    eps = rng_expected.standard_normal((2, 2))
    w = obj.width
    aw = 0.05 * w
    inv_w = 1.0 / w
    walked = np.clip(bright + aw * eps[0], obj.lower, obj.upper)
    diff = walked - dim_
    nd = diff * inv_w
    r2 = float(nd[0] * nd[0] + nd[1] * nd[1])
    beta = params.beta0 * math.exp(-params.gamma * r2)
    moved = np.clip((dim_ + beta * diff) + aw * eps[1], obj.lower, obj.upper)

    assert np.array_equal(state.fireflies[0].position, walked)
    assert np.array_equal(state.fireflies[1].position, moved)


def test_bounds_closure_under_large_noise():
    obj = lookup("ackley", 3)
    params = FaParams(alpha=0.9, pop_size=8, max_fes=800, alpha_schedule=ScheduleDescriptor("constant", alpha0=0.9))
    state = initialize(obj, params, 13)
    while state.fes_used < params.max_fes:
        step(state, obj, params)
        for fly in state.fireflies:
            assert np.all(fly.position >= obj.lower) and np.all(fly.position <= obj.upper)


# "levy" is the default sweep on levy steps
STEP_HOOKS = {"default": None, "elitist": _elitist_sweep, "levy": None, "pull": global_best_pull_step}


def _step_bytes(state):
    best = None if state.best is None else (state.best.position.tobytes(), state.best.fitness)
    return (state.positions.shape, state.positions.tobytes(), state.fitness.tobytes(), best, state.fes_used,
            state.t, state.rng.bit_generator.state)


@pytest.mark.parametrize("loader", ["enabled", "disabled"])
@pytest.mark.parametrize("hook", sorted(STEP_HOOKS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    pop=st.integers(1, 12),
    dim=st.integers(1, 6),
    scheme=st.sampled_from(["asynchronous", "synchronous"]),
    elitism=st.booleans(),
    passes=st.integers(1, 6),
    extra=st.integers(0, 11),
    name=st.sampled_from(["sphere", "rastrigin", "ackley"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_the_step_oracle(loader, hook, pop, dim, scheme, elitism, passes, extra, name, seed):
    # extra % pop > 0 ends the budget mid-pass (the elitist probes cut passes too)
    obj = lookup(name, dim)
    params = FaParams(pop_size=pop, max_fes=pop * passes + extra % pop, update_scheme=scheme, elitism=elitism,
                      epsilon_kind="levy" if hook == "levy" else "gaussian")
    sweep = STEP_HOOKS[hook]
    pinned = mock.patch.object(core, "_load_native_sweep", _no_native)
    with pinned if loader == "disabled" else contextlib.nullcontext():
        state, oracle = initialize(obj, params, seed), initialize(obj, params, seed)
        while oracle.fes_used < params.max_fes:
            step_oracle.step(oracle, obj, params, sweep)
            step(state, obj, params, sweep)
            assert _step_bytes(state) == _step_bytes(oracle)
        with pytest.raises(ValueError, match="evaluation budget already exhausted"):
            step(state, obj, params, sweep)
    assert _step_bytes(state) == _step_bytes(oracle)


# ------------------------------------------------------------ sweep paths


def _sweep_state(pop, dim, seed, fitness=None):
    """Sorted swarm on rastrigin; fitness, when given, forces tie groups."""
    obj = lookup("rastrigin", dim)
    params = FaParams(pop_size=pop, max_fes=10 * pop)
    state = evaluate(initialize(obj, params, seed), obj, params)
    if fitness is not None:
        state.fitness[:] = fitness
    return obj, order(state)


def _sweep_bytes(state):
    return [fly.position.tobytes() for fly in state.fireflies], state.rng.bit_generator.state


def _no_native():
    return None, "no C sweep in this test"


def _without_native(monkeypatch):
    """Make the loader report no C sweep, so pairwise_sweep takes the Python kernel."""
    monkeypatch.setattr(core, "_load_native_sweep", _no_native)


def _python_sweep(state, obj, params, alpha_t):
    """pairwise_sweep with the loader reporting no C sweep, so it runs _sweep_python."""
    with mock.patch.object(core, "_load_native_sweep", _no_native):
        pairwise_sweep(state, obj, params, alpha_t)


def _sweep_paths():
    """pairwise_sweep without the C sweep, and with it when this process loads it."""
    return [_python_sweep] + ([pairwise_sweep] if core._load_native_sweep()[0] is not None else [])


def _assert_paths_agree(state, obj, params, alpha_t=0.3, generations=2):
    """pairwise_sweep on the Python kernel, and on the C sweep, against the loop in sweep_oracle, byte for byte.

    Without a C sweep the Python kernel is still compared; the test is then
    skipped, with the loader's reason.
    """
    kernel, why = core._load_native_sweep()
    paths = _sweep_paths()
    oracle, copies = state, [copy.deepcopy(state) for _ in paths]
    for _ in range(generations):
        sweep_scalar(oracle, obj, params, alpha_t)
        for path, s in zip(paths, copies):
            path(s, obj, params, alpha_t)
            assert _sweep_bytes(s) == _sweep_bytes(oracle), path.__name__
        for s in (oracle, *copies):
            s.fitness[:] = [obj.eval(row) for row in s.positions]
            order(s)
    if kernel is None:
        pytest.skip(f"C sweep not compared: {why}")


SCHEMES = ("asynchronous", "synchronous")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize("pop, dim", [(1, 5), (1, 300), (7, 3), (25, 5), (40, 5), (50, 10), (200, 50)])
def test_pairwise_sweep_matches_scalar_oracle_at_fixed_shapes(pop, dim, scheme, elitism):
    obj, state = _sweep_state(pop, dim, seed=pop + dim)
    params = FaParams(gamma=5.0, pop_size=pop, max_fes=10 * pop, update_scheme=scheme, elitism=elitism)
    _assert_paths_agree(state, obj, params)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "gamma, beta0, kind", [(0.0, 0.4, "gaussian"), (1.0, 1.0, "uniform_centered"), (50.0, 1.0, "gaussian")]
)
def test_pairwise_sweep_matches_scalar_oracle_across_params(scheme, gamma, beta0, kind):
    obj, state = _sweep_state(30, 8, seed=3)
    params = FaParams(gamma=gamma, beta0=beta0, pop_size=30, max_fes=300, update_scheme=scheme, epsilon_kind=kind)
    _assert_paths_agree(state, obj, params)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pairwise_sweep_matches_scalar_oracle_with_levy_steps(scheme):
    # 50 x 10 is 1226 step rows, 2 pieces of Lévy draws
    obj, state = _sweep_state(50, 10, seed=5)
    params = FaParams(pop_size=50, max_fes=500, update_scheme=scheme, epsilon_kind="levy", levy_lambda=1.5)
    _assert_paths_agree(state, obj, params)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize(
    "fitness",
    [[i // 3 for i in range(40)], [0.0] * 3 + [1.0] * 30 + [2.0] * 7, [0.0] * 40],
    ids=["groups_of_3", "uneven_groups", "all_walkers"],
)
def test_pairwise_sweep_matches_scalar_oracle_with_ties(fitness, scheme, elitism):
    obj, state = _sweep_state(40, 6, seed=9, fitness=fitness)
    params = FaParams(pop_size=40, max_fes=400, update_scheme=scheme, elitism=elitism)
    _assert_paths_agree(state, obj, params, generations=1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    pop=st.integers(1, 40),
    dim=st.integers(1, 12),
    groups=st.integers(0, 4),
    scheme=st.sampled_from(SCHEMES),
    elitism=st.booleans(),
    kind=st.sampled_from(core.EPSILON_KINDS),
    levy_lambda=st.floats(1.1, 2.9),
    gamma=st.sampled_from([0.0, 1.0, 5.0, 100.0]),
    beta0=st.sampled_from([0.0, 0.4, 1.0]),
    alpha_t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sweep_matches_scalar_oracle_at_random_shapes(
    pop, dim, groups, scheme, elitism, kind, levy_lambda, gamma, beta0, alpha_t, seed
):
    # groups > 0 forces that many tie groups of random sizes for the first
    # sweep; the second sweep orders by the rastrigin values again
    fitness = None if groups == 0 else np.random.default_rng(seed).integers(0, groups, pop)
    obj, state = _sweep_state(pop, dim, seed, fitness)
    params = FaParams(
        gamma=gamma, beta0=beta0, pop_size=pop, max_fes=10 * pop, epsilon_kind=kind,
        update_scheme=scheme, elitism=elitism, levy_lambda=levy_lambda,
    )
    _assert_paths_agree(state, obj, params, alpha_t)


# paper-scale shapes, and narrow ones (pop 1-7) with pop * dim up to 299,
# such as 2 x 149
_KERNEL_SHAPES = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 24)),
    st.integers(1, 7).flatmap(lambda pop: st.tuples(st.just(pop), st.integers(25, 299 // pop))),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    shape=_KERNEL_SHAPES,
    groups=st.integers(0, 4),
    on_bounds=st.sampled_from([0.0, 0.3, 1.0]),
    scheme=st.sampled_from(SCHEMES),
    elitism=st.booleans(),
    kind=st.sampled_from(core.EPSILON_KINDS),
    levy_lambda=st.floats(1.1, 2.9),
    gamma=st.sampled_from([0.0, 1.0, 5.0, 100.0]),
    beta0=st.sampled_from([0.0, 0.4, 1.0]),
    alpha_t=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sweep_matches_scalar_oracle_at_kernel_shapes(
    shape, groups, on_bounds, scheme, elitism, kind, levy_lambda, gamma, beta0, alpha_t, seed
):
    # groups > 0 forces tie groups for the first sweep; on_bounds is the
    # share of coordinates put exactly on a bound before it
    pop, dim = shape
    draw = np.random.default_rng(seed)
    fitness = None if groups == 0 else draw.integers(0, groups, pop)
    obj, state = _sweep_state(pop, dim, seed, fitness)
    for row in state.positions:
        pinned = draw.random(dim) < on_bounds
        row[pinned] = np.where(draw.random(dim) < 0.5, obj.lower, obj.upper)[pinned]
    params = FaParams(
        gamma=gamma, beta0=beta0, pop_size=pop, max_fes=10 * pop, epsilon_kind=kind,
        update_scheme=scheme, elitism=elitism, levy_lambda=levy_lambda,
    )
    _assert_paths_agree(state, obj, params, alpha_t)


def test_pairwise_sweep_matches_scalar_oracle_at_dim_4000():
    paths = _sweep_paths()
    for scheme in SCHEMES:
        obj, state = _sweep_state(2, 4000, seed=4)
        params = FaParams(gamma=2.0, pop_size=2, max_fes=20, update_scheme=scheme)
        expected = copy.deepcopy(state)
        sweep_scalar(expected, obj, params, 0.3)
        for path in paths:
            swept = copy.deepcopy(state)
            path(swept, obj, params, 0.3)
            assert _sweep_bytes(swept) == _sweep_bytes(expected), (scheme, path.__name__)


def test_sweep_kernel_first_call_from_two_threads(monkeypatch):
    # the Python kernel keeps no state between calls: two threads that sweep
    # at once both get the oracle's positions
    _without_native(monkeypatch)
    obj, state = _sweep_state(12, 7, seed=4)
    params = FaParams(pop_size=12, max_fes=120)
    expected = copy.deepcopy(state)
    sweep_scalar(expected, obj, params, 0.3)
    copies = [copy.deepcopy(state) for _ in range(2)]
    barrier = threading.Barrier(len(copies))

    def sweep(s):
        barrier.wait()
        pairwise_sweep(s, obj, params, 0.3)

    threads = [threading.Thread(target=sweep, args=(s,)) for s in copies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for s in copies:
        assert _sweep_bytes(s) == _sweep_bytes(expected)


def test_pairwise_sweep_takes_the_c_sweep_when_it_loads(monkeypatch):
    kernel, why = core._load_native_sweep()
    if kernel is None:
        pytest.skip(f"no C sweep: {why}")
    taken = []
    monkeypatch.setattr(core, "_sweep_python", lambda *args: taken.append("python"))
    for pop, dim in [(20, 3), (40, 10)]:
        obj, state = _sweep_state(pop, dim, seed=0)
        params = FaParams(pop_size=pop, max_fes=10 * pop)
        expected = copy.deepcopy(state)
        sweep_scalar(expected, obj, params, 0.1)
        pairwise_sweep(state, obj, params, 0.1)
        assert _sweep_bytes(state) == _sweep_bytes(expected)
    assert taken == []


@pytest.mark.parametrize("path", ["python", "c"])
@pytest.mark.parametrize(
    "pop, dim, fitness",
    [
        (5, 3, [3.0, 1.0, 2.0, 0.0, 4.0]),
        (5, 3, [0.0, 1.0, math.nan, 3.0, 4.0]),
        (1, 3, [math.nan]),
        (200, 3, list(range(200, 0, -1))),
    ],
    ids=["unsorted", "nan", "nan_alone", "descending_above_crossover"],
)
def test_pairwise_sweep_rejects_unsorted_or_nan_fitness_before_drawing(pop, dim, fitness, path, monkeypatch):
    if path == "python":
        _without_native(monkeypatch)
    elif core._load_native_sweep()[0] is None:
        pytest.skip(f"no C sweep: {core._load_native_sweep()[1]}")
    obj, state = _sweep_state(pop, dim, seed=1)
    state.fitness[:] = fitness
    before = _sweep_bytes(state)
    with pytest.raises(ValueError, match="sorted ascending with no NaN"):
        pairwise_sweep(state, obj, FaParams(pop_size=pop, max_fes=10 * pop), 0.1)
    assert _sweep_bytes(state) == before


@pytest.mark.parametrize("loader", ["enabled", "disabled"])
@pytest.mark.parametrize(
    "reshape, shape",
    [
        (lambda p: p[:4], (4, 5)),
        (lambda p: np.vstack([p, p[:2]]), (8, 5)),
        (lambda p: p[:, :4], (6, 4)),
    ],
    ids=["fewer_rows", "more_rows", "wrong_dim"],
)
def test_pairwise_sweep_rejects_positions_that_do_not_match_fitness(reshape, shape, loader, monkeypatch):
    # the front end checks the shape for both kernels: the Python kernel zips
    # rows with counts, so it would return a (4, 5) population for 6 fitness values
    if loader == "disabled":
        _without_native(monkeypatch)
    obj, state = _sweep_state(6, 5, seed=1)
    state.positions = reshape(state.positions)
    positions, stream = state.positions.copy(), state.rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"positions must have shape (6, 5), got {shape}")):
        pairwise_sweep(state, obj, FaParams(pop_size=6, max_fes=60), 0.1)
    assert state.positions.tobytes() == positions.tobytes()
    assert state.rng.bit_generator.state == stream


# ------------------------------------------------------- steps in pieces


def _kernels():
    """(name, kernel) for the Python kernel, and for the C kernel when this process loads it."""
    native = core._load_native_sweep()[0]
    return [("python", core._sweep_python)] + ([("c", native)] if native is not None else [])


def _piece_spy(kernel, bounds):
    """kernel, appending the (start, stop) of each piece it takes to bounds."""

    def spy(pos, counts, pieces, *args):
        def taken():
            for start, stop, eps in pieces:
                bounds.append((start, stop))
                yield start, stop, eps

        return kernel(pos, counts, taken(), *args)

    return spy


def _sweep_stacked(states, obj, params, alphas):
    """sweep_blocks on the swarms stacked as blocks, each block with its swarm's stream."""
    positions, fitness = np.stack([s.positions for s in states]), np.stack([s.fitness for s in states])
    return core.sweep_blocks(positions, fitness, [s.rng for s in states], obj, params, alphas)


def _assert_pieces_cover(bounds, rows):
    """bounds are consecutive runs from row 0 to rows, each of at least one firefly."""
    assert bounds[0][0] == 0 and bounds[-1][1] == rows
    assert all(start < stop for start, stop in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform_centered"]),
    seed=st.integers(0, 2**63 - 1),
    n=st.integers(1, 3000),
    cuts=st.lists(st.integers(1, 2999), max_size=12),
)
@example(kind="gaussian", seed=1, n=64, cuts=list(range(1, 64)))
@example(kind="uniform_centered", seed=1, n=64, cuts=list(range(1, 64)))
def test_default_step_sources_drawn_in_pieces_give_one_draws_bytes_and_stream_state(kind, seed, n, cuts):
    # the sweep draws the epsilon_kind sources piece by piece; this is the
    # numpy behaviour that keeps the elementwise kinds' draws the bytes of
    # one draw (levy steps are not elementwise)
    params = FaParams(epsilon_kind=kind)
    whole_rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = core._draw_eps_rows(whole_rng, n, 1, params)
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    split = np.concatenate([core._draw_eps_rows(split_rng, b - a, 1, params) for a, b in zip(bounds, bounds[1:])])
    assert split.tobytes() == whole.tobytes()
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize("ties", [False, True])
def test_sweep_in_several_pieces_matches_the_oracle_on_both_kernels(scheme, elitism, ties, monkeypatch):
    obj, state = _sweep_state(60, 40, seed=11, fitness=[i // 4 for i in range(60)] if ties else None)
    params = FaParams(pop_size=60, max_fes=600, update_scheme=scheme, elitism=elitism)
    expected = copy.deepcopy(state)
    sweep_scalar(expected, obj, params, 0.3)
    kernels = _kernels()
    for name, kernel in kernels:
        bounds = []
        monkeypatch.setattr(core, "_load_native_sweep", lambda: (_piece_spy(kernel, bounds), ""))
        swept = copy.deepcopy(state)
        pairwise_sweep(swept, obj, params, 0.3)
        assert _sweep_bytes(swept) == _sweep_bytes(expected), name
        assert len(bounds) > 2, name
        _assert_pieces_cover(bounds, 60)
    if len(kernels) == 1:
        pytest.skip(f"C sweep not compared: {core._load_native_sweep()[1]}")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("shared", [False, True], ids=["own_streams", "one_stream"])
def test_sweep_blocks_in_pieces_that_stop_at_block_ends_matches_the_oracle(scheme, elitism, ties, shared,
                                                                           monkeypatch):
    # three blocks of 30 x 40, each cut into pieces, and every piece within
    # one block; with one stream for all three, the blocks draw from it in
    # block order
    pop, dim, alphas = 30, 40, (0.3, 0.05, 0.6)
    params = FaParams(pop_size=pop, max_fes=10 * pop, update_scheme=scheme, elitism=elitism)
    fitness = [i // 3 for i in range(pop)] if ties else None
    states = [_sweep_state(pop, dim, seed=20 + b, fitness=fitness)[1] for b in range(3)]
    obj = lookup("rastrigin", dim)
    if shared:
        for s in states[1:]:
            s.rng = states[0].rng
    expected = copy.deepcopy(states)  # one deepcopy, so a shared stream stays shared
    for s, alpha_t in zip(expected, alphas):
        sweep_scalar(s, obj, params, alpha_t)
    kernels = _kernels()
    for name, kernel in kernels:
        bounds = []
        monkeypatch.setattr(core, "_load_native_sweep", lambda: (_piece_spy(kernel, bounds), ""))
        swept = copy.deepcopy(states)
        moved = _sweep_stacked(swept, obj, params, alphas)
        for s, p in zip(swept, moved):
            s.positions = p
        assert [_sweep_bytes(s) for s in swept] == [_sweep_bytes(s) for s in expected], name
        _assert_pieces_cover(bounds, 3 * pop)
        assert all(start // pop == (stop - 1) // pop for start, stop in bounds), bounds
        assert {0, pop, 2 * pop} <= {start for start, _ in bounds}, bounds
        assert len(bounds) > 3, bounds
    if len(kernels) == 1:
        pytest.skip(f"C sweep not compared: {core._load_native_sweep()[1]}")


@pytest.mark.parametrize("kind", ["gaussian", "uniform_centered", "levy"])
@pytest.mark.parametrize("pop, dim", [(30, 40), (60, 3)])
def test_sweep_blocks_matches_one_pairwise_sweep_per_block_on_every_step_kind(pop, dim, kind, monkeypatch):
    # 3 x 30 x 40: every block is several pieces; 3 x 60 x 3: every block is
    # one piece, but the three pass _PIECE_DOUBLES together.  Levy steps are
    # not elementwise, so a piece that crossed a block would cut that block's
    # draw where its own sweep does not.
    alphas = (0.3, 0.05, 0.6)
    params = FaParams(pop_size=pop, max_fes=10 * pop, epsilon_kind=kind, levy_lambda=1.7)
    states = [_sweep_state(pop, dim, seed=40 + b)[1] for b in range(3)]
    obj = lookup("rastrigin", dim)
    kernels = _kernels()
    for name, kernel in kernels:
        monkeypatch.setattr(core, "_load_native_sweep", lambda: (kernel, ""))
        expected = copy.deepcopy(states)
        for s, alpha_t in zip(expected, alphas):
            pairwise_sweep(s, obj, params, alpha_t)
        bounds = []
        monkeypatch.setattr(core, "_load_native_sweep", lambda: (_piece_spy(kernel, bounds), ""))
        swept = copy.deepcopy(states)
        for s, p in zip(swept, _sweep_stacked(swept, obj, params, alphas)):
            s.positions = p
        assert [_sweep_bytes(s) for s in swept] == [_sweep_bytes(s) for s in expected], name
        assert len(bounds) >= 3, bounds
    if len(kernels) == 1:
        pytest.skip(f"C sweep not compared: {core._load_native_sweep()[1]}")


@pytest.mark.parametrize("loader", ["enabled", "disabled"])
@pytest.mark.parametrize(
    "rngs, alphas, stacked",
    [(2, 3, 3), (3, 2, 3), (4, 3, 3), (3, 4, 3), (2, 2, 3), (3, 3, 4), (3, 3, 2)],
    ids=["2-3", "3-2", "4-3", "3-4", "2-2", "positions-4", "positions-2"],
)
def test_sweep_blocks_rejects_other_than_one_stream_and_one_alpha_per_block(rngs, alphas, stacked, loader,
                                                                            monkeypatch):
    # 3 fitness blocks of 8 x 5; before, the C loop read steps past the end of
    # a short draw, and the Python loop left blocks without an alpha unmoved.
    # Positions of another block count were reported as "must have shape
    # (8, 5), got (8, 5)".
    if loader == "disabled":
        _without_native(monkeypatch)
    states = [_sweep_state(8, 5, seed=b)[1] for b in range(4)]
    pos = np.stack([s.positions for s in states[:stacked]])
    fit = np.stack([s.fitness for s in states[:3]])
    streams = [s.rng.bit_generator.state for s in states]
    if stacked == 3:
        message = f"one rng and one alpha per block: 3 blocks, {rngs} rngs, {alphas} alphas"
    else:
        message = f"one positions block per fitness block: 3 blocks, got positions of shape ({stacked}, 8, 5)"
    params = FaParams(pop_size=8, max_fes=80)
    with pytest.raises(ValueError, match=re.escape(message)):
        core.sweep_blocks(pos, fit, [s.rng for s in states[:rngs]], lookup("rastrigin", 5), params, [0.3] * alphas)
    assert [s.rng.bit_generator.state for s in states] == streams


@pytest.mark.parametrize("loader", ["enabled", "disabled"])
def test_sweep_of_an_empty_population_keeps_its_shape(loader, monkeypatch):
    # no firefly, so no piece and no kernel call; the C loop would divide by pop = 0
    if loader == "disabled":
        _without_native(monkeypatch)
    obj = lookup("rastrigin", 3)
    state = SwarmState(np.empty((0, 3)), np.empty(0), t=0, fes_used=0, best=None, rng=np.random.default_rng(0))
    pairwise_sweep(state, obj, FaParams(pop_size=1, max_fes=10), 0.3)
    assert state.positions.shape == (0, 3)


@pytest.mark.parametrize(
    "path, pop, dim, kind",
    [("c", 200, 50, "gaussian"), ("python", 60, 40, "gaussian"), ("c", 200, 50, "levy"), ("python", 60, 40, "levy")],
    ids=["c-200-50", "python-60-40", "c-200-50-levy", "python-60-40-levy"],
)
def test_sweep_traced_peak_stays_under_one_mib(path, pop, dim, kind, monkeypatch):
    # the whole draw was 7.6 MiB at 200 x 50 on the C kernel (30.5 MiB of
    # Lévy draw, drawn whole per block), and 2.9 MiB of Python floats at
    # 60 x 40 on the Python one; a sweep now holds one piece of steps at a time
    if path == "python":
        _without_native(monkeypatch)
    elif core._load_native_sweep()[0] is None:
        pytest.skip(f"no C sweep: {core._load_native_sweep()[1]}")
    obj, state = _sweep_state(pop, dim, seed=1)
    params = FaParams(pop_size=pop, max_fes=10 * pop, epsilon_kind=kind)
    tracemalloc.start()
    try:
        pairwise_sweep(state, obj, params, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --------------------------------------------------------- C sweep loader


HAVE_CC = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler to build the C sweep")


@pytest.fixture
def native_dir(tmp_path, monkeypatch):
    """An empty cache directory for the C sweep; the loader forgets its result before and after."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(core, "_NATIVE_DIR", str(cache))
    core._load_native_sweep.cache_clear()
    yield cache
    core._load_native_sweep.cache_clear()


def _assert_python_sweep_bytes(monkeypatch):
    """pairwise_sweep gives the oracle's bytes in the Python kernel, at narrow, paper and wider shapes."""
    taken = []
    python = core._sweep_python

    def record(*args):
        taken.append("_sweep_python")
        return python(*args)

    monkeypatch.setattr(core, "_sweep_python", record)
    for pop, dim in [(20, 3), (40, 10), (1, 300)]:
        for scheme in SCHEMES:
            obj, state = _sweep_state(pop, dim, seed=dim)
            params = FaParams(pop_size=pop, max_fes=10 * pop, update_scheme=scheme)
            expected = copy.deepcopy(state)
            sweep_scalar(expected, obj, params, 0.3)
            pairwise_sweep(state, obj, params, 0.3)
            assert _sweep_bytes(state) == _sweep_bytes(expected)
    assert taken == ["_sweep_python"] * 6


@pytest.mark.parametrize("cause", ["no_compiler", "cache_not_writable"])
def test_c_sweep_that_cannot_build_falls_back_to_the_same_bytes(cause, native_dir, tmp_path, monkeypatch):
    if cause == "no_compiler":
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "no-such-compiler-for-fireflyopt")
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(core, "_NATIVE_DIR", str(tmp_path / "file" / "__pycache__"))
    _assert_python_sweep_bytes(monkeypatch)
    kernel, why = core._load_native_sweep()
    assert kernel is None and "did not build or load" in why
    if cause == "no_compiler":
        assert "no-such-compiler-for-fireflyopt" in why
        assert list(native_dir.iterdir()) == []


@needs_cc
def test_c_sweep_that_fails_the_self_check_is_not_used(native_dir, monkeypatch):
    # float exp in place of exp, built where the right library belongs
    wrong = core._SWEEP_C.replace("beta0 * exp(", "beta0 * expf(")
    assert wrong != core._SWEEP_C
    core._build_native(wrong, core._native_path())
    kernel, why = core._load_native_sweep()
    assert kernel is None and "does not give the Python sweep's bytes" in why
    _assert_python_sweep_bytes(monkeypatch)


@needs_cc
def test_cached_c_sweep_loads_without_running_the_compiler(native_dir, monkeypatch):
    builds = []
    build = core._build_native
    monkeypatch.setattr(core, "_build_native", lambda *args: builds.append(args) or build(*args))
    for _ in range(2):
        kernel, why = core._load_native_sweep()
        assert kernel is not None, why
        assert len(builds) == 1
        core._load_native_sweep.cache_clear()
    assert [p.name for p in native_dir.iterdir()] == [os.path.basename(core._native_path())]


def test_failed_c_sweep_build_leaves_no_temporary_file(native_dir, tmp_path, monkeypatch):
    # a compiler that writes its output file and then fails
    cc = tmp_path / "failing-cc"
    cc.write_text('#!/bin/sh\nwhile [ $# -gt 0 ]; do [ "$1" = -o ] && echo partial > "$2"; shift; done\nexit 1\n')
    cc.chmod(0o755)
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", str(cc))
    kernel, why = core._load_native_sweep()
    assert kernel is None and "exited with 1" in why
    assert list(native_dir.iterdir()) == []


def test_c_sweep_self_check_case_has_a_walker_a_tie_and_moves_past_both_bounds(monkeypatch):
    kernel, why = core._load_native_sweep()
    if kernel is None:
        pytest.skip(f"no C sweep: {why}")
    seen = []
    python = core._sweep_python

    def spy(*args):
        out = python(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(core, "_sweep_python", spy)
    assert core._native_agrees(kernel)
    # one block and two blocks, each under both schemes, with and without elitism
    flags = [(synchronous, elitism) for synchronous in (False, True) for elitism in (False, True)]
    assert sorted((len(pos), synchronous, elitism) for (pos, *_, elitism, synchronous), _ in seen) == sorted(
        (blocks, *flag) for blocks in (1, 2) for flag in flags
    )
    for (pos, counts, eps, lower, upper, alphas, *_), out in seen:
        assert pos.shape == out.shape == (len(alphas), 6, 3)
        assert len(set(alphas)) == len(alphas)  # every block has its own alpha_t
        for block_counts, block_out in zip(counts.tolist(), out):
            # a walker (a firefly with no brighter peer) and a tie group in every block
            assert block_counts.count(0) >= 1 and len(block_counts) - len(set(block_counts)) >= 1
            assert (block_out == lower).any() and (block_out == upper).any()


@needs_cc
@pytest.mark.parametrize(
    "right, wrong",
    [
        ("int64_t r = start, b = start / pop, i = start % pop", "int64_t r = 0, b = 0, i = 0"),
        ("b = start / pop,", "b = 0,"),
        ("if (r == start || i == 0)", "if (r == start)"),
    ],
    ids=["restarts_at_row_0", "starts_in_block_0", "keeps_alpha_across_blocks"],
)
def test_c_sweep_that_mishandles_a_piece_fails_the_self_check(right, wrong, native_dir, monkeypatch):
    # a loop that restarts each piece at row 0, places its first row in block 0,
    # or keeps the first block's alpha_t in a piece that crosses into the next
    assert right in core._SWEEP_C
    core._build_native(core._SWEEP_C.replace(right, wrong), core._native_path())
    kernel, why = core._load_native_sweep()
    assert kernel is None and "does not give the Python sweep's bytes" in why


# -------------------------------------------------------------------- run


def test_run_improves_over_initial():
    obj = lookup("sphere", 2)
    report = run(obj, FaParams(pop_size=20, max_fes=10_000), seed=1)
    assert report.final_best.fitness < report.trace[0][2]


def test_run_single_pass_budget():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=25, max_fes=25)
    report = run(obj, params, seed=2)
    assert len(report.trace) == 1
    assert report.fes_total == 25


@pytest.mark.parametrize("max_fes, generations", [(14, 2), (15, 3), (20, 3), (21, 3)])
def test_run_loop_stops_at_the_budget_and_keeps_the_first_of_tied_bests(max_fes, generations):
    # core._run, the loop of core.run and harness.run_multiswarm: 4 + 3
    # evaluations a generation, so the run ends with the first generation
    # whose sum reaches max_fes; a swarm without a best is passed over, and
    # on a tie the first swarm's best wins
    swarms = [SwarmState(np.zeros((1, 2)), np.zeros(1), t=0, fes_used=0, best=None, rng=None) for _ in range(2)]
    bests = [[(0.0, 1.0), None], [(1.0, 1.0), (2.0, 0.5)], [(3.0, 0.5), (4.0, 0.5)]]
    calls = []

    def generation(g):
        calls.append(g)
        for s, spent, best in zip(swarms, (4, 3), bests[g]):
            s.fes_used += spent
            s.best = None if best is None else Firefly(np.full(2, best[0]), best[1])

    report = core._run(swarms, FaParams(pop_size=1, max_fes=max_fes), 9, generation)
    assert calls == list(range(generations))
    assert report.trace == [(0, 7, 1.0), (1, 14, 0.5), (2, 21, 0.5)][:generations]
    assert report.fes_total == 7 * generations and report.seed == 9
    assert report.final_best.position.tolist() == [float(generations)] * 2
    assert report.final_best is not swarms[0].best


def test_run_synchronous_scheme():
    obj = lookup("rastrigin", 2)
    params = FaParams(pop_size=8, max_fes=800, update_scheme="synchronous")
    a = run(obj, params, seed=3)
    b = run(obj, params, seed=3)
    assert a.trace == b.trace
    assert np.all(a.final_best.position >= obj.lower) and np.all(a.final_best.position <= obj.upper)
    assert a.final_best.fitness < a.trace[0][2]


def test_run_uniform_centered_epsilon():
    obj = lookup("rastrigin", 2)
    params = FaParams(pop_size=8, max_fes=800, epsilon_kind="uniform_centered")
    a = run(obj, params, seed=3)
    b = run(obj, params, seed=3)
    assert a.trace == b.trace
    assert a.final_best.fitness < a.trace[0][2]


def _sweep_hook(name, m):
    """The movement rule of a variant, as run's sweep argument (None: pairwise_sweep)."""
    if name == "elitist":
        def elitist(state, objective, params, alpha_t):
            pairwise_sweep(state, objective, params, alpha_t)
            elitist_best_move(state, m, params, objective, alpha=alpha_t)

        return elitist
    return global_best_pull_step if name == "pull" else None


def _objective_factory(name, dim, shift_interval, seed):
    """A fresh objective per call, so a moving landscape starts over each run."""
    if name == "moving_peaks":
        return lambda: make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval, seed=seed)
    return lambda: lookup(name, 2 if name == "four_peaks" else dim)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["sphere", "rastrigin", "ackley", "four_peaks", "moving_peaks"]),
    dim=st.integers(1, 12),
    pop=st.integers(1, 30),
    passes=st.integers(1, 8),
    extra=st.integers(0, 29),
    alpha=st.floats(0.0, 1.0),
    beta0=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 100.0),
    kind=st.sampled_from(core.EPSILON_KINDS),
    scheme=st.sampled_from(SCHEMES),
    elitism=st.booleans(),
    schedule=st.sampled_from(["default", "constant", "geometric", "chaotic"]),
    levy_lambda=st.floats(1.1, 2.9),
    hook=st.sampled_from(["pairwise", "elitist", "pull"]),
    shift_interval=st.one_of(st.none(), st.integers(1, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_invariants_at_random_params(
    name, dim, pop, passes, extra, alpha, beta0, gamma, kind, scheme, elitism, schedule, levy_lambda, hook,
    shift_interval, seed
):
    # in bounds after every step, the budget spent exactly, a best-so-far
    # trace that never rises, and the same trace from the same seed
    make = _objective_factory(name, dim, shift_interval, seed)
    obj = make()
    params = FaParams(
        alpha=alpha, beta0=beta0, gamma=gamma, pop_size=pop, max_fes=pop * passes + extra % pop,
        epsilon_kind=kind, update_scheme=scheme, elitism=elitism, levy_lambda=levy_lambda,
        alpha_schedule=None if schedule == "default" else ScheduleDescriptor(schedule, alpha0=alpha, ratio=0.9, x0=0.3),
    )
    sweep = _sweep_hook(hook, m=1 + seed % 3)
    state = initialize(obj, params, seed)
    trace = []
    while state.fes_used < params.max_fes:
        step(state, obj, params, sweep=sweep)
        positions = np.array([fly.position for fly in state.fireflies])
        assert np.all(positions >= obj.lower) and np.all(positions <= obj.upper)
        trace.append((state.t - 1, state.fes_used, state.best.fitness))
    assert state.fes_used == params.max_fes
    bests = [row[2] for row in trace]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    for _ in range(2):
        report = run(make(), params, seed, sweep=sweep)
        assert report.trace == trace and report.fes_total == params.max_fes
        assert report.final_best.position.tobytes() == state.best.position.tobytes()


def test_run_trace_monotone_and_deterministic():
    obj = lookup("griewank", 2)
    params = FaParams(pop_size=10, max_fes=2_000)
    a = run(obj, params, seed=5)
    b = run(obj, params, seed=5)
    assert a.trace == b.trace
    assert np.array_equal(a.final_best.position, b.final_best.position)
    fitnesses = [row[2] for row in a.trace]
    assert all(x >= y for x, y in zip(fitnesses, fitnesses[1:]))
    assert a.seed == 5
