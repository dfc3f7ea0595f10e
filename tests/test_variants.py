"""Variant mechanisms: elitist move, global-best pull, reductions, multi-swarm, penalty."""

import contextlib
import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiswarm_oracle import multiswarm_step_per_swarm
from reduction_oracles import oracle_positions

from fireflyopt import (
    EvaluationError,
    FaParams,
    Firefly,
    MultiSwarmConfig,
    Objective,
    PenaltySpec,
    ScheduleDescriptor,
    SwarmState,
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
from fireflyopt import core, variants
from fireflyopt.core import _row_twin
from fireflyopt.harness import run_multiswarm
from fireflyopt.variants import _exclusion_victims, _pair_distances


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
    elitist_best_move(state, 0, params, obj, alpha=0.1)
    assert np.array_equal(state.fireflies[0].position, before)
    assert state.fes_used == fes


def test_elitist_move_at_exact_optimum_stays():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=100)
    state = evaluated_state(obj, params, 1)
    state.positions[0] = 0.0
    state.fitness[0] = 0.0
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


def test_elitist_move_rejects_unevaluated_population():
    # no trial beats a NaN fitness, so the move used to spend its trials
    # silently and move nothing
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=100)
    state = initialize(obj, params, 0)
    before = state.positions.copy()
    with pytest.raises(ValueError, match="evaluated"):
        elitist_best_move(state, 4, params, obj, alpha=0.1)
    assert state.fes_used == 0 and state.best is None
    assert state.positions.tobytes() == before.tobytes()


def test_elitist_move_rejects_a_negative_trial_count():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=100)
    state = evaluated_state(obj, params, 0)
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        elitist_best_move(state, -1, params, obj, alpha=0.1)
    assert state.fes_used == 3


def test_elitist_move_improves_from_plateau():
    # best sits on a slope; at least one of many probes improves it
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=3, max_fes=1000)
    state = evaluated_state(obj, params, 3)
    old_best = state.best.fitness
    elitist_best_move(state, 50, params, obj, alpha=0.05)
    assert state.best.fitness < old_best


def _elitist_move_loop(state, m, params, objective, alpha):
    """The elitist move as written before its trials were batched: one checked call per trial."""
    trials = min(m, params.max_fes - state.fes_used)
    if trials <= 0:
        return
    best = int(np.argmin(state.fitness))
    w = objective.width
    dirs = state.rng.standard_normal((trials, objective.dim))
    winner_pos = None
    winner_fit = state.fitness[best]
    for u in dirs:
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            continue
        trial = state.positions[best] + alpha * w * (u / norm)
        np.clip(trial, objective.lower, objective.upper, out=trial)
        state.fes_used += 1
        value = float(objective.eval(trial))
        if not math.isfinite(value):
            raise EvaluationError(f"objective returned {value} at position {trial.tolist()}")
        if value < winner_fit:
            winner_fit = value
            winner_pos = trial
    if winner_pos is not None:
        state.positions[best] = winner_pos
        state.fitness[best] = winner_fit
        if state.best is None or winner_fit < state.best.fitness:
            state.best = Firefly(winner_pos.copy(), winner_fit)


def _elitist_objective(kind, dim, shift_interval, seed):
    if kind == "sphere":
        return lookup("sphere", dim)
    if kind == "penalty":
        spec = PenaltySpec(constraints=(lambda x: 0.5 - float(x[0]),), weight=10.0)
        return penalty_wrap(lookup("sphere", dim), spec)
    if kind == "plateaus":  # distinct trials tie, so the first minimum must win
        return Objective(dim=dim, lower=np.full(dim, -5.0), upper=np.full(dim, 5.0),
                         eval=lambda x: float(np.floor(np.abs(x).sum())))
    return make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval, shift_length=15.0, seed=seed)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "penalty", "plateaus", "moving_peaks"]),
    pop=st.integers(1, 12),
    dim=st.sampled_from([1, 2, 5]),
    m=st.integers(0, 12),
    # the largest alpha pushes most trials onto the bounds, where they tie
    alpha=st.sampled_from([0.0, 1e-3, 0.1, 3.0]),
    spare=st.integers(0, 40),
    shift_interval=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_elitist_move_matches_per_trial_loop(kind, pop, dim, m, alpha, spare, shift_interval, seed):
    # the penalty closure takes the per-point path; moving peaks shifts
    # every few evaluations, so shifts land inside the trial batches
    params = FaParams(pop_size=pop, max_fes=pop + spare)
    runs = []
    for move in (elitist_best_move, _elitist_move_loop):
        obj = _elitist_objective(kind, dim, shift_interval, seed)
        assert (_row_twin(obj.eval) is None) == (kind in ("penalty", "plateaus"))
        state = evaluated_state(obj, params, seed)
        for _ in range(3):
            move(state, m, params, obj, alpha)
        runs.append((obj, state))
    (a_obj, a), (b_obj, b) = runs
    positions = [np.array([f.position for f in s.fireflies]).tobytes() for s in (a, b)]
    assert positions[0] == positions[1]
    assert [f.fitness for f in a.fireflies] == [f.fitness for f in b.fireflies]
    assert a.fes_used == b.fes_used == pop + min(spare, 3 * m)
    assert a.best.fitness == b.best.fitness
    assert a.best.position.tobytes() == b.best.position.tobytes()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    if kind == "moving_peaks":
        first, second = a_obj.change_hook, b_obj.change_hook
        assert first.evals == second.evals and first.shift_log == second.shift_log
        assert first.centers.tobytes() == second.centers.tobytes()


class _StubRng:
    """Hands out fixed standard-normal rows."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


@pytest.mark.parametrize(
    "rows, winner",
    [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, -1.0]], [0.5, 0.0]),
        ([[0.0, 0.0], [0.0, 0.0]], None),
        # -y and -x tie at 0.25, and the first of them wins
        ([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], [0.5, 0.0]),
    ],
)
def test_elitist_move_drops_zero_directions_and_keeps_first_minimum(rows, winner):
    points = []

    def fn(x):
        points.append(x.tolist())
        return float(np.sum(x * x))

    obj = Objective(dim=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0), eval=fn)
    params = FaParams(pop_size=1, max_fes=100)
    state = SwarmState(np.array([[0.5, 0.5]]), np.array([0.5]), t=0, fes_used=1,
                       best=Firefly(np.array([0.5, 0.5]), 0.5), rng=_StubRng(rows))
    elitist_best_move(state, len(rows), params, obj, alpha=0.25)
    # zero rows are dropped unevaluated and uncharged; the rest probe a
    # displacement of 0.25 * width 2 from (0.5, 0.5)
    kept = [u for u in rows if any(u)]
    assert points == [[0.5 + 0.5 * u[0], 0.5 + 0.5 * u[1]] for u in kept]
    assert state.fes_used == 1 + len(kept)
    assert state.fireflies[0].position.tolist() == (winner or [0.5, 0.5])
    assert state.best.position.tolist() == (winner or [0.5, 0.5])
    assert state.best.fitness == (0.25 if winner else 0.5)


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
        global_best_pull_step(state, obj, params, alpha=0.1)


def _pull_step_loop(state, objective, params, alpha):
    """The pull step as written before it moved to arrays: one firefly at a time."""
    g = state.best.position
    w = objective.width
    eps = state.rng.standard_normal(state.positions.shape)
    for i, ek in enumerate(eps):
        diff = g - state.positions[i]
        nd = diff / w
        beta = params.beta0 * math.exp(-params.gamma * float(nd @ nd))
        pos = state.positions[i] + beta * diff + alpha * ek * w
        np.clip(pos, objective.lower, objective.upper, out=pos)
        state.positions[i] = pos


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    pop=st.integers(1, 40),
    dim=st.sampled_from([1, 2, 5, 9, 30]),
    gamma=st.sampled_from([0.0, 0.1, 1.0, 100.0]),
    beta0=st.sampled_from([0.0, 0.5, 1.0]),
    # large alphas push most moves onto the bounds
    alpha=st.sampled_from([0.0, 1e-3, 0.2, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_step_matches_per_firefly_loop(pop, dim, gamma, beta0, alpha, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-10.0, 0.0, dim)
    obj = Objective(dim=dim, lower=lower, upper=lower + rng.uniform(0.1, 20.0, dim), eval=lambda x: 0.0)
    params = FaParams(alpha=alpha, beta0=beta0, gamma=gamma, pop_size=pop, max_fes=10 * pop)
    state = initialize(obj, params, seed)
    state.best = Firefly(rng.uniform(obj.lower, obj.upper), 0.0)
    oracle = copy.deepcopy(state)
    for _ in range(2):
        global_best_pull_step(state, obj, params, alpha=alpha)
        _pull_step_loop(oracle, obj, params, alpha)
    got = np.array([f.position for f in state.fireflies])
    want = np.array([f.position for f in oracle.fireflies])
    assert got.tobytes() == want.tobytes()
    assert state.rng.bit_generator.state == oracle.rng.bit_generator.state


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["exclusion_radius", "anticonvergence_radius"])
def test_multiswarm_config_rejects_non_finite_radii(name, bad):
    # a nan exclusion radius parsed, and exclusion could then never fire
    radii = {"exclusion_radius": 0.1, "anticonvergence_radius": 0.05, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MultiSwarmConfig(num_swarms=2, swarm_size=2, **radii)


@pytest.mark.parametrize("name, value", [("num_swarms", 0), ("swarm_size", 0), ("sentinel_count", -1)])
def test_multiswarm_config_rejects_counts_out_of_range(name, value):
    # only the API reaches these: a config document has num_swarms checked first
    counts = {"num_swarms": 2, "swarm_size": 2, "sentinel_count": 1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be >= [01], got {value}$"):
        MultiSwarmConfig(exclusion_radius=0.1, anticonvergence_radius=0.05, **counts)


def test_make_sentinels_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
        make_sentinels(lookup("sphere", 2), -1, 0)


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
        for i in range(len(swarm.positions)):
            swarm.positions[i] = [0.01 * k, 0.01 * i]
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
    for i in range(len(swarms[0].positions)):
        swarms[0].positions[i] = [0.1, 0.1 + 1e-4 * i]
    for i in range(len(swarms[1].positions)):
        swarms[1].positions[i] = [4.0, 4.0 + 1e-4 * i]
    log = []
    multiswarm_step(swarms, config, obj, params, log=log, sentinels=make_sentinels(obj, 1, 4))
    assert any(e["event"] == "anticonvergence" and e["swarm"] == 1 for e in log)
    assert swarms[1].best is None
    assert swarms[0].best is not None


def test_multiswarm_anticonvergence_waits_for_every_swarm():
    obj = lookup("sphere", 2)
    params = FaParams(pop_size=6, max_fes=10_000, alpha=0.0, beta0=0.0)
    config = MultiSwarmConfig(num_swarms=3, swarm_size=2, exclusion_radius=0.05, anticonvergence_radius=0.2)
    swarms = initialize_multiswarm(obj, params, config, 4)
    # two tight clusters far apart; only the last swarm is spread out
    for k, corner in enumerate((0.1, 4.0)):
        for i in range(len(swarms[k].positions)):
            swarms[k].positions[i] = [corner, corner + 1e-4 * i]
    swarms[2].positions[:] = [[-4.0, -4.0], [-2.0, 4.0]]
    log = []
    multiswarm_step(swarms, config, obj, params, log=log, sentinels=make_sentinels(obj, 1, 4))
    assert log == []
    assert all(swarm.best is not None for swarm in swarms)


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    num_swarms=st.integers(1, 4),
    swarm_size=st.integers(1, 8),
    sentinel_count=st.integers(0, 5),
    dim=st.sampled_from([1, 2, 5]),
    shift_interval=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiswarm_batch_path_matches_per_point_path(num_swarms, swarm_size, sentinel_count, dim,
                                                       shift_interval, seed):
    # shifts land inside the sentinel probes, the change re-evaluation and
    # the swarms' evaluation passes
    landscapes = [
        make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval, shift_length=15.0, seed=seed)
        for _ in range(2)
    ]
    fn = landscapes[1].eval
    per_point = Objective(dim=dim, lower=landscapes[1].lower, upper=landscapes[1].upper, eval=lambda x: fn(x))
    assert _row_twin(landscapes[0].eval) is not None and _row_twin(per_point.eval) is None
    params = FaParams(pop_size=num_swarms * swarm_size, max_fes=10**6)
    config = MultiSwarmConfig(num_swarms=num_swarms, swarm_size=swarm_size, exclusion_radius=0.1,
                              anticonvergence_radius=0.05, sentinel_count=sentinel_count)
    runs = []
    for obj in (landscapes[0], per_point):
        swarms = initialize_multiswarm(obj, params, config, seed)
        sentinels = make_sentinels(obj, sentinel_count, seed + 1)
        log = []
        for _ in range(12):
            multiswarm_step(swarms, config, obj, params, sentinels=sentinels, log=log)
        runs.append((swarms, sentinels, log))
    (a, a_sentinels, a_log), (b, b_sentinels, b_log) = runs
    assert a_log == b_log
    assert any(e["event"] == "change" for e in a_log) == (sentinel_count > 0)
    assert np.asarray(a_sentinels.values).tobytes() == np.asarray(b_sentinels.values).tobytes()
    def flies(swarm):
        best = [] if swarm.best is None else [[swarm.best.fitness, *swarm.best.position]]
        return swarm.fes_used, np.array([[f.fitness, *f.position] for f in swarm.fireflies] + best).tobytes()

    assert [flies(s) for s in a] == [flies(s) for s in b]
    first, second = (obj.change_hook for obj in landscapes)
    assert first.evals == second.evals and first.shift_log == second.shift_log
    assert first.centers.tobytes() == second.centers.tobytes()
    assert first.rng.bit_generator.state == second.rng.bit_generator.state


def test_multiswarm_step_leaves_a_cut_rerandomized_swarm_unsorted(monkeypatch):
    # exclusion re-randomizes swarm 0 every step; at the sixth both swarms
    # have 6 of their 46 evaluations left, so swarm 0 is cut with NaN rows
    obj = make_moving_peaks(peak_count=3, dim=1, shift_interval=None, seed=0)
    params = FaParams(pop_size=16, max_fes=46)
    config = MultiSwarmConfig(2, 8, 0.45, 0.05, sentinel_count=0)
    swarms = initialize_multiswarm(obj, params, config, 0)
    sentinels = make_sentinels(obj, 0, 1)
    for _ in range(5):
        multiswarm_step(swarms, config, obj, params, sentinels)
    assert [s.fes_used for s in swarms] == [40, 40] and np.isnan(swarms[0].fitness).all()
    # the generation alone: the cut swarms keep their rows, the unevaluated
    # ones NaN, and neither looks up an alpha_t
    looked_up, original = [], core.alpha_at
    monkeypatch.setattr(core, "alpha_at", lambda schedule, t: looked_up.append(t) or original(schedule, t))
    cut = copy.deepcopy(swarms)
    core.step_swarms(cut, obj, params)
    assert looked_up == []
    for before, after in zip(swarms, cut):
        assert after.positions.tobytes() == before.positions.tobytes()
        assert after.fes_used == 46 and after.t == before.t + 1
    assert np.isnan(cut[0].fitness[6:]).all() and not np.isnan(cut[0].fitness[:6]).any()
    multiswarm_step(swarms, config, obj, params, sentinels)
    assert [s.fes_used for s in swarms] == [46, 46]


@pytest.mark.parametrize("sizes", [(2, 4), (4, 2), (3, 3, 2)])
def test_step_swarms_rejects_swarms_of_unequal_size_before_evaluating(sizes):
    calls = []
    sphere = lookup("sphere", 2)
    obj = dataclasses.replace(sphere, eval=lambda x: calls.append(1) or sphere.eval(x), known_optimum=None)
    params = FaParams(pop_size=max(sizes), max_fes=100)
    swarms = [evaluate(initialize(obj, dataclasses.replace(params, pop_size=n), k), obj, params)
              for k, n in enumerate(sizes)]
    calls.clear()

    def snapshot():
        return [(s.positions.tobytes(), s.fitness.tobytes(), s.fes_used, s.t, s.rng.bit_generator.state)
                for s in swarms]

    before = snapshot()
    with pytest.raises(ValueError, match=rf"one size, got sizes \[{', '.join(map(str, sizes))}\]"):
        core.step_swarms(swarms, obj, params)
    assert snapshot() == before and calls == []


@pytest.mark.parametrize("loader", ["enabled", "disabled"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    num_swarms=st.integers(1, 5),
    swarm_size=st.integers(1, 8),
    dim=st.sampled_from([1, 2, 5]),
    scheme=st.sampled_from(["asynchronous", "synchronous"]),
    elitism=st.booleans(),
    sentinel_count=st.integers(0, 3),
    shift_interval=st.one_of(st.none(), st.integers(1, 40)),
    per_point=st.booleans(),
    extra=st.integers(0, 100),
    radii=st.sampled_from([(0.05, 0.05), (0.3, 0.5), (0.45, 0.02)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiswarm_step_matches_one_step_per_swarm(loader, num_swarms, swarm_size, dim, scheme, elitism,
                                                    sentinel_count, shift_interval, per_point, extra, radii, seed):
    # max_fes is every swarm's own budget: from pop_size + extra, swarms run
    # out within the 12 steps, some cut to a partial evaluation pass and
    # some evaluating without a sweep after it
    pop = num_swarms * swarm_size
    params = FaParams(pop_size=pop, max_fes=pop + extra, update_scheme=scheme, elitism=elitism)
    config = MultiSwarmConfig(num_swarms, swarm_size, *radii, sentinel_count=sentinel_count)
    pinned = mock.patch.object(core, "_load_native_sweep", lambda: (None, "Python sweep pinned"))
    runs = []
    for multiswarm in (multiswarm_step_per_swarm, multiswarm_step):
        landscape = make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval, seed=seed)
        obj = landscape
        if per_point:
            fn = landscape.eval
            obj = dataclasses.replace(landscape, eval=lambda x: fn(x), known_optimum=None)
        # initialize_multiswarm rejects sentinels that use up the budget; the
        # same swarms, laid out without sentinels, step such a layout directly
        swarms = initialize_multiswarm(obj, params, dataclasses.replace(config, sentinel_count=0), seed)
        sentinels = make_sentinels(obj, sentinel_count, seed + 1)
        log, raised = [], None
        with pinned if loader == "disabled" else contextlib.nullcontext():
            try:
                for _ in range(12):
                    multiswarm(swarms, config, obj, params, sentinels, log=log)
            except ValueError as exc:  # an unevaluated swarm cut to a partial pass cannot be ordered
                raised = str(exc)
        hook = landscape.change_hook
        state = [(s.positions.tobytes(), s.fitness.tobytes(), s.fes_used, s.t, s.rng.bit_generator.state,
                  None if s.best is None else (s.best.position.tobytes(), s.best.fitness)) for s in swarms]
        runs.append((raised, state, log, np.asarray(sentinels.values).tobytes(), hook.evals, hook.shift_log,
                     hook.centers.tobytes()))
    expected, got = runs
    assert got[0] == expected[0]
    if expected[0] is None:
        assert got == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    num_swarms=st.integers(1, 4),
    swarm_size=st.integers(1, 6),
    sentinel_count=st.integers(0, 3),
    dim=st.integers(1, 5),
    dynamic=st.booleans(),
    shift_interval=st.integers(1, 40),
    passes=st.integers(1, 10),
    extra=st.integers(0, 23),
    alpha=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 100.0),
    scheme=st.sampled_from(["asynchronous", "synchronous"]),
    exclusion_radius=st.floats(0.01, 0.45),
    anticonvergence_radius=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiswarm_run_invariants(num_swarms, swarm_size, sentinel_count, dim, dynamic, shift_interval, passes,
                                   extra, alpha, gamma, scheme, exclusion_radius, anticonvergence_radius, seed):
    # in bounds after every generation, a generation spends at most its
    # probes and passes (twice that on a detected change), so the budget is
    # overshot by less than one generation, and the same seed gives the
    # same run
    pop = num_swarms * swarm_size
    params = FaParams(alpha=alpha, gamma=gamma, pop_size=pop, max_fes=pop * passes + extra % pop,
                      update_scheme=scheme)
    config = MultiSwarmConfig(num_swarms, swarm_size, exclusion_radius, anticonvergence_radius, sentinel_count)

    def make():
        return make_moving_peaks(peak_count=3, dim=dim, shift_interval=shift_interval if dynamic else None, seed=seed)

    obj = make()
    swarms = initialize_multiswarm(obj, params, config, seed)
    sentinels = make_sentinels(obj, sentinel_count, seed + 1)
    total = 0
    while total < params.max_fes:
        log = []
        multiswarm_step(swarms, config, obj, params, sentinels, log=log)
        spent = sum(s.fes_used for s in swarms) - total
        total += spent
        passes_run = 2 if any(event["event"] == "change" for event in log) else 1
        assert 0 < spent <= passes_run * (pop + sentinel_count)
        positions = np.array([fly.position for s in swarms for fly in s.fireflies])
        assert np.all(positions >= obj.lower) and np.all(positions <= obj.upper)
    assert total - params.max_fes < passes_run * (pop + sentinel_count)

    runs = [run_multiswarm(make(), params, config, seed) for _ in range(2)]
    (report, events), (again, events_again) = runs
    assert report.trace == again.trace and events == events_again
    assert report.final_best.position.tobytes() == again.final_best.position.tobytes()
    assert report.fes_total == report.trace[-1][1] >= params.max_fes
    assert len(report.trace) == 1 or report.trace[-2][1] < params.max_fes
    last = len(report.trace) - 1
    passes_run = 2 if any(e["event"] == "change" and e["generation"] == last for e in events) else 1
    assert report.fes_total - params.max_fes < passes_run * (pop + sentinel_count)


def test_sentinel_probes_are_charged_round_robin():
    # probe k is charged to swarm k mod num_swarms, on the batched path too
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=None, seed=2)
    assert _row_twin(obj.eval) is not None
    params = FaParams(pop_size=6, max_fes=10_000)
    config = MultiSwarmConfig(num_swarms=3, swarm_size=2, exclusion_radius=0.05,
                              anticonvergence_radius=0.01, sentinel_count=5)
    swarms = initialize_multiswarm(obj, params, config, 3)
    multiswarm_step(swarms, config, obj, params, sentinels=make_sentinels(obj, 5, 33))
    assert [s.fes_used for s in swarms] == [2 + 2, 2 + 2, 2 + 1]
    assert obj.change_hook.evals == 5 + 6


def test_multiswarm_change_pass_is_not_cut_to_the_budget():
    # generation 0: 3 probes and 8 rows take the swarm to 11 of 12; the
    # shift after evaluation 2 is seen at generation 1, whose probes take
    # it to 14, past the budget, and the change pass still re-evaluates
    # all 8 rows before the 3 re-baseline probes
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=2, seed=0)
    report, events = run_multiswarm(obj, FaParams(pop_size=8, max_fes=12), MultiSwarmConfig(1, 8, 0.3, 0.05, 3), 0)
    assert [row[:2] for row in report.trace] == [(0, 11), (1, 25)]
    assert events == [{"event": "change", "generation": 1}]
    assert obj.change_hook.evals == report.fes_total == 3 + 8 + 3 + 8 + 3
    assert report.final_best.fitness == report.trace[-1][2]


@pytest.mark.parametrize("seed", [0, 1])
def test_run_multiswarm_tags_each_event_with_its_generation(seed):
    # run_multiswarm against its loop written out: one multiswarm_step per
    # generation until the summed budget is spent, each event tagged with
    # the generation that logged it
    params = FaParams(pop_size=12, max_fes=1200)
    config = MultiSwarmConfig(3, 4, 0.2, 0.3, 2)
    report, events = run_multiswarm(make_moving_peaks(peak_count=3, dim=2, shift_interval=100, seed=seed),
                                    params, config, seed)
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=100, seed=seed)
    swarms = initialize_multiswarm(obj, params, config, seed)
    sentinels = make_sentinels(obj, 2, np.random.SeedSequence(seed, spawn_key=(3,)))
    expected, trace = [], []
    while sum(s.fes_used for s in swarms) < params.max_fes:
        log = []
        multiswarm_step(swarms, config, obj, params, sentinels, log=log)
        expected += [{**event, "generation": len(trace)} for event in log]
        best = min((s.best for s in swarms if s.best is not None), key=lambda b: b.fitness)
        trace.append((len(trace), sum(s.fes_used for s in swarms), best.fitness))
    assert events == expected
    assert {event["event"] for event in events} == {"change", "exclusion", "anticonvergence"}
    assert report.trace == trace
    assert report.final_best.position.tobytes() == best.position.tobytes()


@pytest.mark.parametrize("num_swarms", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_run_multiswarm_rejects_sentinels_that_use_up_the_budget(num_swarms, extra):
    # probe k is charged to swarm k mod num_swarms, so every swarm pays at
    # least sentinel_count // num_swarms probes before it evaluates a row:
    # from num_swarms * max_fes sentinels on, no swarm ever would
    params = FaParams(pop_size=num_swarms, max_fes=num_swarms + extra)
    boundary = num_swarms * params.max_fes
    for sentinel_count in range(boundary + 3):
        obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=2, seed=0)
        config = MultiSwarmConfig(num_swarms, 1, 0.3, 0.05, sentinel_count)
        if sentinel_count < boundary:
            report, _ = run_multiswarm(obj, params, config, 0)
            assert report.fes_total >= params.max_fes
            continue
        message = (rf"^sentinel_count \({sentinel_count}\) .* num_swarms \({num_swarms}\) .*"
                   rf"max_fes \({params.max_fes}\) before any swarm evaluates a row$")
        with pytest.raises(ValueError, match=message):
            run_multiswarm(obj, params, config, 0)
        assert obj.change_hook.evals == 0


def test_multiswarm_step_rejects_swarms_sharing_one_generator():
    calls = []
    sphere = lookup("sphere", 2)
    obj = dataclasses.replace(sphere, eval=lambda x: calls.append(1) or sphere.eval(x), known_optimum=None)
    params = FaParams(pop_size=6, max_fes=1000)
    config = MultiSwarmConfig(num_swarms=3, swarm_size=2, exclusion_radius=0.1, anticonvergence_radius=0.05)
    swarms = initialize_multiswarm(obj, params, config, 4)
    multiswarm_step(swarms, config, obj, params, sentinels=make_sentinels(obj, 1, 9))
    assert calls
    calls.clear()
    swarms[2].rng = swarms[0].rng
    with pytest.raises(ValueError, match=r"^swarms 0 and 2 share an identical random stream$"):
        multiswarm_step(swarms, config, obj, params, sentinels=make_sentinels(obj, 1, 9))
    assert calls == []


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


def _norm_loop_victims(bests, objective, radius):
    """The exclusion loop as written with one np.linalg.norm call per pair."""
    victims = set()
    for i in range(len(bests)):
        for j in range(i + 1, len(bests)):
            bi, bj = bests[i], bests[j]
            if bi is None or bj is None or i in victims or j in victims:
                continue
            gap = float(np.linalg.norm((bi.position - objective.lower) / objective.width
                                       - (bj.position - objective.lower) / objective.width))
            if gap < radius:
                victims.add(j if bj.fitness >= bi.fitness else i)
    return victims


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 2, 8, 40]),
    dim=st.sampled_from([1, 2, 5, 30]),
    scale_exp=st.integers(-9, 0),
    duplicates=st.integers(0, 3),
    none_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_distances_match_per_pair_norm(k, dim, scale_exp, duplicates, none_share, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-100.0, 0.0, dim)
    obj = Objective(dim=dim, lower=lower, upper=lower + rng.uniform(0.5, 200.0, dim), eval=lambda x: 0.0)
    center = rng.uniform(obj.lower, obj.upper)
    positions = center + 10.0**scale_exp * obj.width * rng.standard_normal((k, dim))
    for _ in range(duplicates):
        positions[rng.integers(k)] = positions[rng.integers(k)]
    pts = [(p - obj.lower) / obj.width for p in positions]

    def norm_oracle(rows):
        return np.array([[float(np.linalg.norm(rows[i] - rows[j])) for j in range(k)] for i in range(k)])

    oracle = norm_oracle(pts)
    dist = _pair_distances(positions, obj)
    assert dist.shape == (k, k)
    assert dist.tobytes() == oracle.tobytes()
    # stacked blocks: each matches its own per-pair oracle, and its max the one-swarm diameter
    blocks = _pair_distances(np.stack([positions, positions[::-1]]), obj)
    assert blocks.shape == (2, k, k)
    for block, rows in zip(blocks, (pts, pts[::-1])):
        assert block.tobytes() == norm_oracle(rows).tobytes()
        assert block.max() == max(max(row) for row in oracle.tolist())

    # fitness ties exercise the >= in the victim choice; radii sit on pair gaps
    bests = [None if rng.random() < none_share else Firefly(p, float(rng.integers(3))) for p in positions]
    for radius in (oracle[rng.integers(k), rng.integers(k)], float(np.median(oracle)), 0.5):
        assert _exclusion_victims(bests, obj, radius) == _norm_loop_victims(bests, obj, radius)


# -------------------------------------------------------- population arrays


def _stepped(pop, dim):
    obj = lookup("rastrigin", dim)
    params = FaParams(pop_size=pop, max_fes=100 * pop)
    state = initialize(obj, params, 0)
    for _ in range(2):
        step(state, obj, params)
    return [state]


def _evaluated():
    obj = lookup("sphere", 3)
    params = FaParams(pop_size=5, max_fes=1000)
    return [evaluate(initialize(obj, params, 0), obj, params)]


def _elitist_moved():
    obj = lookup("sphere", 3)
    params = FaParams(pop_size=5, max_fes=1000)
    state = evaluated_state(obj, params, 0)
    old = state.best.fitness
    elitist_best_move(state, 50, params, obj, alpha=0.05)
    assert state.best.fitness < old  # a winner was written into the positions
    return [state]


def _pulled():
    obj = lookup("sphere", 3)
    params = FaParams(pop_size=5, max_fes=1000)
    state = evaluated_state(obj, params, 0)
    global_best_pull_step(state, obj, params, alpha=params.alpha)
    return [state]


def _change_passed(monkeypatch):
    """Two swarms right after a detected change; their own steps are skipped."""
    monkeypatch.setattr(variants, "step", lambda *args, **kwargs: None)
    obj = make_moving_peaks(peak_count=3, dim=2, shift_interval=2, seed=5)
    params = FaParams(pop_size=6, max_fes=10_000)
    config = MultiSwarmConfig(num_swarms=2, swarm_size=3, exclusion_radius=1e-9, anticonvergence_radius=1e-9)
    swarms = initialize_multiswarm(obj, params, config, 5)
    sentinels = make_sentinels(obj, 1, 6)
    log = []
    for _ in range(5):
        multiswarm_step(swarms, config, obj, params, sentinels, log=log)
        if log:
            break
    assert log == [{"event": "change"}]
    return swarms


_MOVES = {
    "evaluate": lambda monkeypatch: _evaluated(),
    "scalar_step": lambda monkeypatch: _stepped(25, 5),
    "row_step": lambda monkeypatch: _stepped(40, 10),
    "elitist": lambda monkeypatch: _elitist_moved(),
    "pull": lambda monkeypatch: _pulled(),
    "change_pass": _change_passed,
}


@pytest.mark.parametrize("move", list(_MOVES))
def test_best_and_fireflies_view_share_no_memory_with_positions(move, monkeypatch):
    # the best-so-far and the fireflies view must be copies; a write through
    # the view raises
    for state in _MOVES[move](monkeypatch):
        assert not np.shares_memory(state.best.position, state.positions)
        best = (state.best.position.tobytes(), state.best.fitness)
        snapshot = state.fireflies
        seen = [(fly.position.tobytes(), fly.fitness) for fly in snapshot]
        state.positions += 1.0
        assert (state.best.position.tobytes(), state.best.fitness) == best
        assert [(fly.position.tobytes(), fly.fitness) for fly in snapshot] == seen
        with pytest.raises(ValueError, match="read-only"):
            snapshot[0].position[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot[0].fitness = 0.0


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
    # a swarm's rows and its elitist trials are charged and recorded only
    # once their values are in; the sentinel probes keep their own charge
    charged = (state.fes_used, state.best) if site != "sentinel_probe" else None
    with pytest.raises(EvaluationError, match=f"returned {bad}"):
        call()
    if charged is not None:
        assert state.fes_used == charged[0] and state.best is charged[1]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["weight", "exponent"])
def test_penalty_spec_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PenaltySpec(constraints=(), **{name: bad})
