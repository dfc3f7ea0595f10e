"""Equation kernels, population machinery, and the generational loop."""

import contextlib
import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    levy_step,
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
    eps = core._draw_eps_rows(replay, 1, dim, kind, None)[0]
    assert got.tobytes() == _one_pair_formula(si, sj, params, alpha, eps, w).tobytes()
    assert stream.bit_generator.state == replay.bit_generator.state
    # every row of a batch gets the one-pair formula's bits
    pos = rng.uniform(-10.0, 10.0, (rows, dim))
    eps = rng.standard_normal((rows, dim))
    batch = core.pull_rows(pos, sj, params, 0.5 * alpha, eps, w)
    for row, e, out in zip(pos, eps, batch):
        assert out.tobytes() == _one_pair_formula(row, sj, params, 0.5 * alpha, e, w).tobytes()


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta0", "gamma"])
def test_params_reject_non_finite(name, bad):
    # alpha inf pinned every position to the bounds; gamma nan failed
    # mid-run with an EvaluationError that blamed the objective
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FaParams(**{name: bad})


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(dim=2, lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]), eval=lambda x: 0.0)
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
    state.fireflies[0].position = np.zeros(2)
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


def test_evaluate_best_monotone():
    obj = lookup("rastrigin", 3)
    params = FaParams(pop_size=8, max_fes=10_000)
    state = initialize(obj, params, 3)
    evaluate(state, obj, params)
    previous = state.best.fitness
    rng = np.random.default_rng(9)
    for _ in range(10):
        for fly in state.fireflies:
            fly.position = rng.uniform(obj.lower, obj.upper)
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
        for fly, row in zip(state.fireflies, positions):
            fly.position = row.copy()
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


# ------------------------------------------------------------ order, best


def _state_with_fitness(values):
    flies = [Firefly(np.array([float(i), 0.0]), float(v)) for i, v in enumerate(values)]
    return SwarmState(fireflies=flies, t=0, fes_used=0, best=None, rng=np.random.default_rng(0))


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
    state.fireflies[1].fitness = math.nan
    with pytest.raises(ValueError):
        order(state)


def test_find_best_picks_minimum_and_retains_history():
    state = _state_with_fitness([3.0, 1.0, 2.0])
    best = find_best(state)
    assert best.fitness == 1.0
    assert state.best.fitness == 1.0
    state.best = Firefly(np.zeros(2), 4.0)
    for fly in state.fireflies:
        fly.fitness += 4.0  # current generation best becomes 5.0
    find_best(state)
    assert state.best.fitness == 4.0


def test_find_best_single_and_empty():
    state = _state_with_fitness([7.0])
    assert find_best(state).fitness == 7.0
    empty = SwarmState(fireflies=[], t=0, fes_used=0, best=None, rng=np.random.default_rng(0))
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
    # step does not call find_best: evaluate reconciles each value it
    # computes, so find_best never replaces the best, before the move or
    # after the partial final pass
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


# ------------------------------------------------------------ sweep paths


def _sweep_state(pop, dim, seed, fitness=None):
    """Sorted swarm on rastrigin; fitness, when given, forces tie groups."""
    obj = lookup("rastrigin", dim)
    params = FaParams(pop_size=pop, max_fes=10 * pop)
    state = evaluate(initialize(obj, params, seed), obj, params)
    if fitness is not None:
        for fly, value in zip(state.fireflies, fitness):
            fly.fitness = float(value)
    return obj, order(state)


def _sweep_bytes(state):
    return [fly.position.tobytes() for fly in state.fireflies], state.rng.bit_generator.state


def _assert_paths_agree(state, obj, params, alpha_t=0.3, eps_fn=None, generations=2):
    scalar, rows = state, copy.deepcopy(state)
    for _ in range(generations):
        core._sweep_scalar(scalar, obj, params, alpha_t, eps_fn)
        core._sweep_rows(rows, obj, params, alpha_t, eps_fn)
        assert _sweep_bytes(rows) == _sweep_bytes(scalar)
        for s in (scalar, rows):
            for fly in s.fireflies:
                fly.fitness = obj.eval(fly.position)
            order(s)


SCHEMES = ("asynchronous", "synchronous")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize("pop, dim", [(1, 5), (1, 300), (7, 3), (25, 5), (40, 5), (50, 10), (200, 50)])
def test_row_sweep_matches_scalar_oracle(pop, dim, scheme, elitism):
    obj, state = _sweep_state(pop, dim, seed=pop + dim)
    params = FaParams(gamma=5.0, pop_size=pop, max_fes=10 * pop, update_scheme=scheme, elitism=elitism)
    _assert_paths_agree(state, obj, params)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "gamma, beta0, kind", [(0.0, 0.4, "gaussian"), (1.0, 1.0, "uniform_centered"), (50.0, 1.0, "gaussian")]
)
def test_row_sweep_matches_scalar_oracle_across_params(scheme, gamma, beta0, kind):
    obj, state = _sweep_state(30, 8, seed=3)
    params = FaParams(gamma=gamma, beta0=beta0, pop_size=30, max_fes=300, update_scheme=scheme, epsilon_kind=kind)
    _assert_paths_agree(state, obj, params)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_row_sweep_matches_scalar_oracle_with_levy_steps(scheme):
    obj, state = _sweep_state(50, 10, seed=5)
    params = FaParams(pop_size=50, max_fes=500, update_scheme=scheme)
    _assert_paths_agree(state, obj, params, eps_fn=lambda rng, n: levy_step(rng, n, 1.5))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("elitism", [False, True])
@pytest.mark.parametrize(
    "fitness",
    [[i // 3 for i in range(40)], [0.0] * 3 + [1.0] * 30 + [2.0] * 7, [0.0] * 40],
    ids=["groups_of_3", "uneven_groups", "all_walkers"],
)
def test_row_sweep_matches_scalar_oracle_with_ties(fitness, scheme, elitism):
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
    levy_lambda=st.one_of(st.none(), st.floats(1.1, 2.9)),
    gamma=st.sampled_from([0.0, 1.0, 5.0, 100.0]),
    beta0=st.sampled_from([0.0, 0.4, 1.0]),
    alpha_t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sweep_matches_scalar_oracle_at_random_shapes(
    pop, dim, groups, scheme, elitism, kind, levy_lambda, gamma, beta0, alpha_t, seed
):
    # groups > 0 forces that many tie groups of random sizes for the first
    # sweep; the second sweep orders by the rastrigin values again
    fitness = None if groups == 0 else np.random.default_rng(seed).integers(0, groups, pop)
    obj, state = _sweep_state(pop, dim, seed, fitness)
    params = FaParams(
        gamma=gamma, beta0=beta0, pop_size=pop, max_fes=10 * pop, epsilon_kind=kind,
        update_scheme=scheme, elitism=elitism,
    )
    eps_fn = None if levy_lambda is None else (lambda rng, n: levy_step(rng, n, levy_lambda))
    _assert_paths_agree(state, obj, params, alpha_t, eps_fn)


@pytest.mark.parametrize("pop, dim", [(1, core.ROW_SWEEP_MIN_CELLS), (20, core.ROW_SWEEP_MIN_CELLS // 20 - 1)])
def test_pairwise_sweep_dispatches_on_row_sweep_min_cells(pop, dim, monkeypatch):
    taken = []
    monkeypatch.setattr(core, "_sweep_rows", lambda *args: taken.append("rows"))
    monkeypatch.setattr(core, "_sweep_scalar", lambda *args: taken.append("scalar"))
    obj, state = _sweep_state(pop, dim, seed=0)
    pairwise_sweep(state, obj, FaParams(pop_size=pop, max_fes=10 * pop), 0.1)
    assert taken == ["rows" if pop * dim >= core.ROW_SWEEP_MIN_CELLS else "scalar"]


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


def _sweep_hook(name, m, levy_lambda):
    """The movement rule of a variant, as run's sweep argument (None: pairwise_sweep)."""
    if name == "elitist":
        def elitist(state, objective, params, alpha_t):
            pairwise_sweep(state, objective, params, alpha_t)
            elitist_best_move(state, m, params, objective, alpha=alpha_t)

        return elitist
    if name == "levy":
        def levy(state, objective, params, alpha_t):
            pairwise_sweep(state, objective, params, alpha_t, eps_fn=lambda rng, n: levy_step(rng, n, levy_lambda))

        return levy
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
    hook=st.sampled_from(["pairwise", "elitist", "levy", "pull"]),
    shift_interval=st.one_of(st.none(), st.integers(1, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_invariants_at_random_params(
    name, dim, pop, passes, extra, alpha, beta0, gamma, kind, scheme, elitism, schedule, hook, shift_interval, seed
):
    # in bounds after every step, the budget spent exactly, a best-so-far
    # trace that never rises, and the same trace from the same seed
    make = _objective_factory(name, dim, shift_interval, seed)
    obj = make()
    params = FaParams(
        alpha=alpha, beta0=beta0, gamma=gamma, pop_size=pop, max_fes=pop * passes + extra % pop,
        epsilon_kind=kind, update_scheme=scheme, elitism=elitism,
        alpha_schedule=None if schedule == "default" else ScheduleDescriptor(schedule, alpha0=alpha, ratio=0.9, x0=0.3),
    )
    sweep = _sweep_hook(hook, m=1 + seed % 3, levy_lambda=1.5)
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
