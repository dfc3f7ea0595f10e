"""Random-step generators, schedules, and the chaotic map."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireflyopt import randomization
from fireflyopt import (
    ScheduleDescriptor,
    alpha_at,
    gaussian_step,
    levy_step,
    logistic_next,
    mantegna_sigma,
    uniform_centered_step,
)

SIGMA_U_AT_HALF = 1.4793375595943194  # Mantegna scale, stable index 0.5
SIGMA_U_AT_09 = 1.0661832903124846  # Mantegna scale, stable index 0.9


def test_gaussian_step_deterministic_and_shaped():
    a = gaussian_step(np.random.default_rng(3), 10)
    b = gaussian_step(np.random.default_rng(3), 10)
    assert np.array_equal(a, b)
    assert gaussian_step(np.random.default_rng(0), 3).shape == (3,)


def test_gaussian_step_moments():
    draws = gaussian_step(np.random.default_rng(7), 100_000)
    assert -0.02 < draws.mean() < 0.02
    assert 0.97 < draws.var() < 1.03


def test_uniform_centered_step_range_and_mean():
    draws = uniform_centered_step(np.random.default_rng(11), 100_000)
    assert np.all(draws >= -0.5) and np.all(draws <= 0.5)
    assert -0.005 < draws.mean() < 0.005
    a = uniform_centered_step(np.random.default_rng(4), 6)
    b = uniform_centered_step(np.random.default_rng(4), 6)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("fn", [gaussian_step, uniform_centered_step])
def test_step_rejects_empty(fn):
    with pytest.raises(ValueError):
        fn(np.random.default_rng(0), 0)


def test_mantegna_sigma_frozen_values():
    assert abs(mantegna_sigma(0.5) - SIGMA_U_AT_HALF) < 1e-12
    assert abs(mantegna_sigma(0.9) - SIGMA_U_AT_09) < 1e-12
    with pytest.raises(ValueError):
        mantegna_sigma(2.0)


def test_levy_step_heavy_tail_vs_gaussian():
    draws = levy_step(np.random.default_rng(5), 100_000, 1.5)
    empirical = float(np.mean(np.abs(draws) > 10.0))
    gaussian_tail = math.erfc(10.0 / math.sqrt(2.0))  # P(|N(0,1)| > 10), analytic
    assert empirical > 100.0 * gaussian_tail


def test_levy_step_tail_ordering_in_lambda():
    heavy = levy_step(np.random.default_rng(6), 100_000, 1.2)
    light = levy_step(np.random.default_rng(6), 100_000, 2.9)
    assert np.mean(np.abs(heavy) > 10.0) > np.mean(np.abs(light) > 10.0)


def test_levy_step_shape_determinism_and_domain():
    assert levy_step(np.random.default_rng(1), 7, 1.5).shape == (7,)
    a = levy_step(np.random.default_rng(2), 5, 1.5)
    b = levy_step(np.random.default_rng(2), 5, 1.5)
    assert np.array_equal(a, b)
    for lam in (1.0, 3.0, 0.2):
        with pytest.raises(ValueError):
            levy_step(np.random.default_rng(0), 4, lam)
    with pytest.raises(ValueError):
        levy_step(np.random.default_rng(0), 0, 1.5)


def test_logistic_next_values():
    assert logistic_next(0.5) == 1.0
    assert logistic_next(0.0) == 0.0
    assert abs(logistic_next(0.2) - 0.64) < 1e-15
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            logistic_next(bad)


def test_logistic_orbit_stays_in_unit_interval():
    x = 0.7
    for _ in range(1_000_000):
        x = logistic_next(x)
    assert 0.0 <= x <= 1.0


def test_alpha_at_constant_and_geometric():
    const = ScheduleDescriptor("constant", alpha0=0.3)
    assert all(alpha_at(const, t) == 0.3 for t in (0, 1, 10, 1000))
    geo = ScheduleDescriptor("geometric", alpha0=0.2, ratio=0.97)
    assert alpha_at(geo, 0) == 0.2
    halving = ScheduleDescriptor("geometric", alpha0=1.0, ratio=0.5)
    assert alpha_at(halving, 3) == 0.125
    values = [alpha_at(geo, t) for t in range(200)]
    assert all(x >= y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        alpha_at(geo, -1)


def test_alpha_at_chaotic_iterates():
    sched = ScheduleDescriptor("chaotic", alpha0=2.0, x0=0.7)
    assert alpha_at(sched, 0) == 2.0 * 0.7
    assert abs(alpha_at(sched, 1) - 2.0 * 0.84) < 1e-15
    assert abs(alpha_at(sched, 2) - 2.0 * 0.5376) < 1e-14


def _replayed_orbit(x0, length):
    """x_0 .. x_{length-1} of the logistic map, each the replay from x0 as alpha_at once ran it."""
    orbit = [x0]
    for _ in range(length - 1):
        orbit.append(logistic_next(orbit[-1]))
    return orbit


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    x0=st.floats(0.01, 0.99).filter(lambda x: x not in (0.25, 0.5, 0.75)),
    ts=st.lists(st.integers(0, 3000), max_size=60),
)
def test_alpha_at_chaotic_matches_replay(x0, ts):
    sched = ScheduleDescriptor("chaotic", alpha0=0.3, x0=x0)
    orbit = _replayed_orbit(x0, 3001)
    # a run's order (0, 1, 2, ...), then jumps back and forth and repeats
    for t in list(range(3001)) + ts + ts[::-1]:
        assert alpha_at(sched, t) == 0.3 * orbit[t]


def test_alpha_at_chaotic_matches_replay_from_two_threads():
    # two threads share the schedules of one x0, as repetitions that a caller
    # runs on threads do; one walks forward as a run does, the other backward,
    # and a short switch interval interleaves them finely
    scheds = [ScheduleDescriptor("chaotic", alpha0=a, x0=0.7) for a in (0.2, 0.5)]
    orbit = _replayed_orbit(0.7, 3001)
    barrier = threading.Barrier(2, timeout=30)
    mismatches = []
    walked = []

    def walk(order):
        barrier.wait()
        for t in order:
            for sched in scheds:
                if alpha_at(sched, t) != sched.alpha0 * orbit[t]:
                    mismatches.append((sched, t))
        walked.append(len(order))

    threads = [threading.Thread(target=walk, args=(order,)) for order in (range(3001), range(3000, -1, -7))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(walked) == [429, 3001]
    assert mismatches == []


def test_alpha_at_chaotic_cold_call_at_large_t_and_one_cursor():
    orbit = _replayed_orbit(0.7, 200_001)
    sched = ScheduleDescriptor("chaotic", alpha0=1.0, x0=0.7)
    got = []
    thread = threading.Thread(target=lambda: got.append(alpha_at(sched, 200_000)))
    thread.start()
    thread.join(timeout=60)
    assert got == [orbit[200_000]]
    # alternating x0s restart from each x0 and keep only the last cursor
    other = ScheduleDescriptor("chaotic", alpha0=1.0, x0=0.123)
    other_orbit = _replayed_orbit(0.123, 51)
    for t in (10, 50, 50, 20):
        assert alpha_at(sched, t) == orbit[t]
        assert alpha_at(other, t) == other_orbit[t]
    assert randomization._cursor.last == (0.123, 20, other_orbit[20])


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleDescriptor("geometric", alpha0=0.2, ratio=1.0)
    with pytest.raises(ValueError):
        ScheduleDescriptor("geometric", alpha0=0.2, ratio=0.0)
    with pytest.raises(ValueError):
        ScheduleDescriptor("constant", alpha0=-0.2)
    with pytest.raises(ValueError):
        ScheduleDescriptor("warped", alpha0=0.2)
    for x0 in (0.0, 0.25, 0.5, 0.75, 1.0):
        with pytest.raises(ValueError):
            ScheduleDescriptor("chaotic", alpha0=0.2, x0=x0)


@pytest.mark.parametrize("kind", ["constant", "geometric", "chaotic"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_rejects_non_finite_alpha0(kind, bad):
    with pytest.raises(ValueError, match="alpha0 must be finite"):
        ScheduleDescriptor(kind, alpha0=bad)


def test_batched_draws_match_sequential():
    # The sweep batches its per-move draws; stream equivalence with
    # sequential draws is what makes replay-style checks valid.
    a = np.random.default_rng(9).standard_normal((4, 3))
    b_rng = np.random.default_rng(9)
    b = np.stack([b_rng.standard_normal(3) for _ in range(4)])
    assert np.array_equal(a, b)
    a = np.random.default_rng(9).random((4, 3))
    b_rng = np.random.default_rng(9)
    b = np.stack([b_rng.random(3) for _ in range(4)])
    assert np.array_equal(a, b)
