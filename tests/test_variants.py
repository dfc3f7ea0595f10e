"""Variant mechanisms: elitist move, global-best pull, reductions, multi-swarm, penalty."""

import math

import numpy as np
import pytest
from reduction_oracles import oracle_positions

from fireflyopt import (
    EvaluationError,
    FaParams,
    MultiSwarmConfig,
    Objective,
    PenaltySpec,
    ScheduleDescriptor,
    elitist_best_move,
    evaluate,
    find_best,
    global_best_pull_step,
    initialize,
    initialize_multiswarm,
    lookup,
    make_moving_peaks,
    make_sentinels,
    multiswarm_step,
    order,
    penalty_wrap,
    reduction_mode,
    step,
)


def evaluated_state(objective, params, seed):
    state = initialize(objective, params, seed)
    evaluate(state, objective, params)
    order(state)
    find_best(state)
    return state


# ------------------------------------------------------------ elitist move


def test_elitist_move_zero_trials_is_noop():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=4, max_fes=100)
    state = evaluated_state(obj, params, 0)
    before = state.fireflies[0].position.copy()
    fes = state.fes_used
    elitist_best_move(state, 0, params, obj)
    assert np.array_equal(state.fireflies[0].position, before)
    assert state.fes_used == fes


def test_elitist_move_at_exact_optimum_stays():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=100)
    state = evaluated_state(obj, params, 1)
    state.fireflies[0].position = np.zeros(2)
    state.fireflies[0].fitness = 0.0
    state.fireflies[0].intensity = 0.0
    elitist_best_move(state, 5, params, obj, alpha=0.1)
    assert np.array_equal(state.fireflies[0].position, np.zeros(2))
    assert state.fes_used == 3 + 5


def test_elitist_move_never_worsens_best():
    obj = lookup("rastrigin", 3)
    params = FaParams(pop_size=6, max_fes=1000)
    for seed in range(10):
        state = evaluated_state(obj, params, seed)
        before = min(f.fitness for f in state.fireflies)
        elitist_best_move(state, 4, params, obj, alpha=0.05)
        after = min(f.fitness for f in state.fireflies)
        assert after <= before
        assert state.best.fitness <= before


def test_elitist_move_respects_budget():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=5)
    state = evaluated_state(obj, params, 2)  # 3 evaluations used
    elitist_best_move(state, 10, params, obj, alpha=0.1)
    assert state.fes_used == 5  # only 2 trials fit


def test_elitist_move_improves_from_plateau():
    # best sits on a slope; at least one of many probes improves it
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=1000)
    state = evaluated_state(obj, params, 3)
    old_best = state.best.fitness
    elitist_best_move(state, 50, params, obj, alpha=0.05)
    assert state.best.fitness < old_best


# -------------------------------------------------------- global-best pull


def test_pull_step_lands_on_best_without_absorption_or_noise():
    obj = lookup("sphere", 3)
    params = FaParams(beta0=1.0, gamma=0.0, alpha=0.0, pop_size=5, max_fes=100)
    state = evaluated_state(obj, params, 4)
    g = state.best.position.copy()
    global_best_pull_step(state, obj, params, alpha=0.0)
    for fly in state.fireflies:
        assert np.max(np.abs(fly.position - g)) < 1e-12


def test_pull_step_null_when_frozen():
    obj = lookup("sphere", 3)
    params = FaParams(beta0=0.0, alpha=0.0, pop_size=5, max_fes=100)
    state = evaluated_state(obj, params, 5)
    before = [f.position.copy() for f in state.fireflies]
    global_best_pull_step(state, obj, params, alpha=0.0)
    for fly, prev in zip(state.fireflies, before):
        assert np.array_equal(fly.position, prev)


def test_pull_step_requires_evaluated_state():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=100)
    state = initialize(obj, params, 0)
    with pytest.raises(ValueError):
        global_best_pull_step(state, obj, params)


# -------------------------------------------------------------- reductions


def test_reduction_presets():
    base = FaParams(pop_size=7, max_fes=700)
    sa = reduction_mode("sa_like", base)
    assert sa.beta0 == 0.0 and sa.pop_size == 7
    de1 = reduction_mode("de_like", base, seed=33)
    de2 = reduction_mode("de_like", base, seed=33)
    assert de1.gamma == 0.0
    assert 0.0 <= de1.beta0 <= 1.0
    assert de1.beta0 == de2.beta0
    assert reduction_mode("de_like", base, seed=34).beta0 != de1.beta0
    pso = reduction_mode("pso_like", base)
    assert pso.gamma == 0.0
    with pytest.raises(ValueError):
        reduction_mode("de_like", base)
    with pytest.raises(ValueError):
        reduction_mode("ga_like", base)


def _engine_positions(objective, params, seed, generations, sweep=None):
    state = initialize(objective, params, seed)
    out = []
    for _ in range(generations):
        step(state, objective, params, sweep=sweep)
        out.append(np.array([f.position for f in state.fireflies]))
    return out


def test_de_like_matches_independent_crossover_step():
    obj = lookup("sphere", 3)
    params = reduction_mode("de_like", FaParams(pop_size=8, max_fes=10**9), seed=101)
    engine = _engine_positions(obj, params, 101, 100)
    oracle = oracle_positions(obj, params, 101, 100, "pairwise")
    for got, want in zip(engine, oracle):
        assert np.max(np.abs(got - want)) == 0.0


def test_pso_like_matches_independent_accelerated_swarm_step():
    obj = lookup("rastrigin", 3)
    params = reduction_mode("pso_like", FaParams(pop_size=8, max_fes=10**9))

    def pull_sweep(state, objective, p, alpha_t):
        global_best_pull_step(state, objective, p, alpha=alpha_t)

    engine = _engine_positions(obj, params, 7, 100, sweep=pull_sweep)
    oracle = oracle_positions(obj, params, 7, 100, "pull")
    for got, want in zip(engine, oracle):
        assert np.max(np.abs(got - want)) == 0.0


def test_sa_like_displacements_replay_as_pure_noise():
    obj = lookup("ackley", 3)
    params = reduction_mode("sa_like", FaParams(pop_size=8, max_fes=10**9))
    engine = _engine_positions(obj, params, 55, 100)
    oracle = oracle_positions(obj, params, 55, 100, "sa")
    for got, want in zip(engine, oracle):
        assert np.max(np.abs(got - want)) == 0.0


# -------------------------------------------------------------- multiswarm


def test_initialize_multiswarm_validates_layout():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=10, max_fes=1000)
    config = MultiSwarmConfig(num_swarms=3, swarm_size=3, exclusion_radius=0.1, anticonvergence_radius=0.05)
    with pytest.raises(ValueError):
        initialize_multiswarm(obj, params, config, 0)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=5, exclusion_radius=0.8, anticonvergence_radius=0.05)
    with pytest.raises(ValueError, match="half the"):
        initialize_multiswarm(obj, params, config, 0)


def test_multiswarm_rejects_identical_streams():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=4, max_fes=1000)
    swarm_params = FaParams(pop_size=2, max_fes=1000)
    swarms = [initialize(obj, swarm_params, 9), initialize(obj, swarm_params, 9)]
    config = MultiSwarmConfig(num_swarms=2, swarm_size=2, exclusion_radius=0.1, anticonvergence_radius=0.05)
    with pytest.raises(ValueError, match="identical random stream"):
        multiswarm_step(swarms, config, obj, params, sentinels=make_sentinels(obj, 1, 9))


def test_multiswarm_exclusion_rerandomizes_exactly_one():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=4, max_fes=10_000, alpha=0.0, beta0=0.0)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=2, exclusion_radius=0.3, anticonvergence_radius=1e-6)
    swarms = initialize_multiswarm(obj, params, config, 3)
    # park both swarms on nearly the same spot: their bests must collide
    for k, swarm in enumerate(swarms):
        for i, fly in enumerate(swarm.fireflies):
            fly.position = np.array([0.01 * k, 0.01 * i])
    log = []
    multiswarm_step(swarms, config, obj, params, log=log, sentinels=make_sentinels(obj, 1, 3))
    assert sum(1 for e in log if e["event"] == "exclusion") == 1
    nones = [swarm.best is None for swarm in swarms]
    assert sum(nones) == 1
    victim = swarms[nones.index(True)]
    assert all(math.isnan(f.fitness) for f in victim.fireflies)


def test_multiswarm_anticonvergence_rerandomizes_worst():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=4, max_fes=10_000, alpha=0.0, beta0=0.0)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=2, exclusion_radius=0.05, anticonvergence_radius=0.2)
    swarms = initialize_multiswarm(obj, params, config, 4)
    # two tight clusters, far apart; the second is worse (farther from origin)
    for i, fly in enumerate(swarms[0].fireflies):
        fly.position = np.array([0.1, 0.1 + 1e-4 * i])
    for i, fly in enumerate(swarms[1].fireflies):
        fly.position = np.array([4.0, 4.0 + 1e-4 * i])
    log = []
    multiswarm_step(swarms, config, obj, params, log=log, sentinels=make_sentinels(obj, 1, 4))
    assert any(e["event"] == "anticonvergence" and e["swarm"] == 1 for e in log)
    assert swarms[1].best is None
    assert swarms[0].best is not None


def test_multiswarm_static_objective_never_flags_change():
    obj = lookup("rastrigin", 2)
    params = FaParams(pop_size=6, max_fes=100_000)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=3, exclusion_radius=0.05,
                              anticonvergence_radius=0.01, sentinel_count=2)
    probes = make_sentinels(obj, 2, 55)
    swarms = initialize_multiswarm(obj, params, config, 5)
    log = []
    for _ in range(50):
        multiswarm_step(swarms, config, obj, params, log=log, sentinels=probes)
    assert not any(e["event"] == "change" for e in log)


def test_multiswarm_flags_change_on_first_sentinel_cycle_after_shift():
    params = FaParams(pop_size=6, max_fes=100_000, alpha=0.1,
                      alpha_schedule=ScheduleDescriptor("constant", alpha0=0.1))
    config = MultiSwarmConfig(num_swarms=2, swarm_size=3, exclusion_radius=0.05,
                              anticonvergence_radius=0.01, sentinel_count=2)
    # one multiswarm generation costs 6 swarm evals + up to 2 sentinel evals
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=40, shift_length=10.0, seed=8)
    swarms = initialize_multiswarm(obj, params, config, 8)
    sentinels = make_sentinels(obj, config.sentinel_count, 88)
    gens_with_change = []
    shift_gen = None
    for gen in range(20):
        events = []
        multiswarm_step(swarms, config, obj, params, log=events, sentinels=sentinels)
        if any(e["event"] == "change" for e in events):
            gens_with_change.append(gen)
        if shift_gen is None and obj.change_hook.shift_log:
            shift_gen = gen
        if shift_gen is not None and gen >= shift_gen + 1:
            break
    assert shift_gen is not None, "the landscape never shifted"
    # sentinels run at the start of a generation, so the first chance to see
    # a mid-generation shift is the following generation's sentinel phase
    assert any(shift_gen <= g <= shift_gen + 1 for g in gens_with_change)


def test_multiswarm_bests_separated_after_step():
    obj = lookup("griewank", 2)
    params = FaParams(pop_size=8, max_fes=100_000)
    config = MultiSwarmConfig(num_swarms=4, swarm_size=2, exclusion_radius=0.1,
                              anticonvergence_radius=0.01, sentinel_count=1)
    swarms = initialize_multiswarm(obj, params, config, 11)
    sentinels = make_sentinels(obj, config.sentinel_count, 11)
    for _ in range(30):
        multiswarm_step(swarms, config, obj, params, sentinels=sentinels)
        width = obj.upper - obj.lower
        bests = [s.best for s in swarms if s.best is not None]
        for i in range(len(bests)):
            for j in range(i + 1, len(bests)):
                gap = np.linalg.norm((bests[i].position - bests[j].position) / width)
                assert gap >= config.exclusion_radius


# ------------------------------------------------------- checked evaluation


class SwitchableSphere:
    """2-D sphere on [-1, 1]^2 that returns `bad` once it is set."""

    def __init__(self):
        self.bad = None
        self.objective = Objective(dim=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0), eval=self)

    def __call__(self, x):
        return float(np.sum(x * x)) if self.bad is None else self.bad


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", ["evaluate", "elitist_probe", "sentinel_probe"])
def test_non_finite_fitness_raises_evaluation_error(site, bad):
    fn = SwitchableSphere()
    obj = fn.objective
    params = FaParams(pop_size=4, max_fes=1000)
    if site == "evaluate":
        state = initialize(obj, params, 0)

        def call():
            evaluate(state, obj, params)
    elif site == "elitist_probe":
        state = evaluated_state(obj, params, 0)

        def call():
            elitist_best_move(state, 3, params, obj, alpha=0.1)
    else:
        config = MultiSwarmConfig(num_swarms=2, swarm_size=2, exclusion_radius=0.1, anticonvergence_radius=0.05)
        swarms = initialize_multiswarm(obj, params, config, 0)
        sentinels = make_sentinels(obj, 1, 0)

        def call():
            multiswarm_step(swarms, config, obj, params, sentinels=sentinels)
    fn.bad = bad
    with pytest.raises(EvaluationError, match=f"returned {bad}"):
        call()


def test_sentinel_rebaseline_rejects_nan():
    # A NaN reference would turn every later drift comparison False and
    # silently end change detection for the rest of the run.
    calls = {"n": 0, "shift": 0.0, "nan": range(0)}

    def fn(x):
        calls["n"] += 1
        if calls["n"] in calls["nan"]:
            return math.nan
        return float(np.sum(x * x)) + calls["shift"]

    obj = Objective(dim=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0), eval=fn)
    params = FaParams(pop_size=4, max_fes=10_000)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=2, exclusion_radius=0.05,
                              anticonvergence_radius=1e-6, sentinel_count=2)
    swarms = initialize_multiswarm(obj, params, config, 6)
    sentinels = make_sentinels(obj, 2, 66)
    multiswarm_step(swarms, config, obj, params, sentinels=sentinels)  # caches the references
    calls["shift"] = 1.0
    # the change generation: 2 probes see the shift, 4 re-evaluations, then
    # the 2 re-baseline probes, which alone return NaN
    first = calls["n"] + 2 + 4 + 1
    calls["nan"] = range(first, first + 2)
    with pytest.raises(EvaluationError):
        multiswarm_step(swarms, config, obj, params, sentinels=sentinels)
    assert calls["n"] == first


# ----------------------------------------------------------------- penalty


def make_constrained():
    obj = lookup("sphere", 2)
    spec = PenaltySpec(constraints=(lambda x: 1.0 - x[0],), weight=10.0, exponent=2.0)
    return obj, spec, penalty_wrap(obj, spec)


def test_penalty_feasible_points_unchanged():
    obj, _, wrapped = make_constrained()
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.uniform([1.0, -5.12], [5.12, 5.12])
        assert wrapped.eval(x) == obj.eval(x)


def test_penalty_violation_amount():
    _, _, wrapped = make_constrained()
    x = np.array([-1.0, 0.0])  # violates 1 - x0 <= 0 by 2
    assert wrapped.eval(x) == lookup("sphere", 2).eval(x) + 10.0 * 2.0**2


def test_penalty_monotone_in_violation():
    _, _, wrapped = make_constrained()
    raw = lookup("sphere", 2)
    previous = None
    for x0 in np.linspace(0.9, -3.0, 20):
        x = np.array([x0, 0.0])
        margin = wrapped.eval(x) - raw.eval(x)
        if previous is not None:
            assert margin > previous
        previous = margin


def test_penalty_optimum_dropped_when_infeasible_kept_when_feasible():
    obj, spec, wrapped = make_constrained()
    assert wrapped.known_optimum is None  # origin violates x0 >= 1
    assert np.array_equal(wrapped.lower, obj.lower) and np.array_equal(wrapped.upper, obj.upper)
    assert wrapped.dim == obj.dim
    easy = PenaltySpec(constraints=(lambda x: x[0] - 5.0,), weight=10.0)
    kept = penalty_wrap(obj, easy)
    assert kept.known_optimum is not None
    assert kept.known_optimum[1] == obj.known_optimum[1]


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(constraints=(), weight=0.0)
    with pytest.raises(ValueError):
        PenaltySpec(constraints=(), exponent=0.5)
