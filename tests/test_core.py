"""Equation kernels, population machinery, and the generational loop."""

import math

import numpy as np
import pytest

from fireflyopt import (
    EvaluationError,
    FaParams,
    Firefly,
    Objective,
    ScheduleDescriptor,
    SwarmState,
    attractiveness,
    distance,
    evaluate,
    find_best,
    fitness_to_intensity,
    initialize,
    intensity_at,
    lookup,
    move_firefly,
    order,
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


def test_fitness_to_intensity():
    assert fitness_to_intensity(0.0) == 0.0
    assert fitness_to_intensity(-3.5) == 3.5
    assert fitness_to_intensity(1.0) > fitness_to_intensity(2.0)


# ------------------------------------------------------------ move_firefly


def test_move_zero_attraction_zero_noise_is_identity():
    params = FaParams(alpha=0.0, beta0=0.0, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.3, 0.4]), fitness=2.0, intensity=-2.0)
    sj = Firefly(np.array([0.9, 0.1]), fitness=1.0, intensity=-1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.array_equal(out, si.position)


def test_move_full_attraction_lands_on_target():
    params = FaParams(alpha=0.0, beta0=1.0, gamma=0.0, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.0, 0.0]), fitness=2.0, intensity=-2.0)
    sj = Firefly(np.array([1.0, 2.0]), fitness=1.0, intensity=-1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.array_equal(out, sj.position)


def test_move_extreme_absorption_stays_put():
    # unit domain widths, so the normalized separation is exactly 1
    params = FaParams(alpha=0.0, beta0=1.0, gamma=1e6, pop_size=2, max_fes=2)
    si = Firefly(np.array([0.0, 0.0]), fitness=2.0, intensity=-2.0)
    sj = Firefly(np.array([0.6, 0.8]), fitness=1.0, intensity=-1.0)
    out = move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))
    assert np.all(np.abs(out - si.position) < 1e-6)


def test_move_dimension_mismatch():
    params = FaParams(pop_size=2, max_fes=2)
    si = Firefly(np.zeros(2), 1.0, -1.0)
    sj = Firefly(np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        move_firefly(si, sj, params, np.ones(2), np.random.default_rng(0))


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
        assert math.isnan(fly.fitness) and math.isnan(fly.intensity)


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


# ------------------------------------------------------------ order, best


def _state_with_fitness(values):
    flies = [Firefly(np.array([float(i), 0.0]), float(v), -float(v)) for i, v in enumerate(values)]
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
    state.best = Firefly(np.zeros(2), 4.0, -4.0)
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
