"""The one-swarm generation as core.step ran it on its own, kept as a test oracle.

core.step is core.step_swarms on one swarm.  This is the step that ran
before, written out again with its evaluate and order inlined: alpha, one
evaluation pass cut to the remaining budget, the budget test, a stable sort,
the default or hook sweep, then t += 1.  The tests compare the two byte for
byte.
"""

import numpy as np

from fireflyopt.core import Firefly, checked_rows, pairwise_sweep
from fireflyopt.randomization import alpha_at


def step(state, objective, params, sweep=None):
    """core.step with its own evaluation, budget cut and sort."""
    if state.fes_used >= params.max_fes:
        raise ValueError("evaluation budget already exhausted")
    alpha_t = alpha_at(params.alpha_schedule, state.t)

    n = max(0, min(len(state.fitness), params.max_fes - state.fes_used))
    values = checked_rows(objective, state.positions[:n])
    state.fitness[:n] = values
    if values:
        i = values.index(min(values))
        if state.best is None or values[i] < state.best.fitness:
            state.best = Firefly(state.positions[i].copy(), values[i])
    state.fes_used += n

    if state.fes_used < params.max_fes:
        if np.isnan(state.fitness).any():
            raise ValueError("cannot order an unevaluated population")
        rank = np.argsort(state.fitness, kind="stable")
        state.positions = state.positions[rank]
        state.fitness = state.fitness[rank]
        if sweep is None:
            pairwise_sweep(state, objective, params, alpha_t)
        else:
            sweep(state, objective, params, alpha_t)
    state.t += 1
    return state
