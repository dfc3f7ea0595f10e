"""The scalar attraction sweep as a plain loop over d, kept as a test oracle.

It is written apart from the package, so the tests can byte-compare
core.pairwise_sweep on both of its kernels (core._sweep_python, the plain
Python loop, and the C loop) against it: same positions, same random stream
state afterwards.  It shares only the random-step draw with the package.
"""

import math
from bisect import bisect_left

import numpy as np

from fireflyopt.core import _draw_eps_rows


def sweep_scalar(state, objective, params, alpha_t, eps_fn) -> None:
    """pairwise_sweep on plain Python floats, one firefly and one d at a time."""
    pop = len(state.fitness)
    dim = objective.dim
    lo = objective.lower.tolist()
    hi = objective.upper.tolist()
    width = [h - l for l, h in zip(lo, hi)]
    inv_w = [1.0 / wd for wd in width]
    aw = [alpha_t * wd for wd in width]
    fit = state.fitness.tolist()
    # After sorting, the strictly brighter peers of firefly i are exactly
    # the prefix before its tie group.
    counts = [bisect_left(fit, fit[i]) for i in range(pop)]
    walkers = 0 if params.elitism else sum(1 for c in counts if c == 0)
    eps = _draw_eps_rows(state.rng, sum(counts) + walkers, dim, params.epsilon_kind, eps_fn).tolist()

    pos = state.positions.tolist()
    synchronous = params.update_scheme == "synchronous"
    snap = [row[:] for row in pos] if synchronous else None
    elitism = params.elitism
    gamma = params.gamma
    beta0 = params.beta0
    exp = math.exp
    dims = range(dim)
    diff = [0.0] * dim
    k = 0

    for i in range(pop):
        ci = counts[i]
        pi = pos[i]
        if ci == 0:
            if elitism:
                continue
            ek = eps[k]
            k += 1
            for d in dims:
                v = pi[d] + aw[d] * ek[d]
                if v < lo[d]:
                    v = lo[d]
                elif v > hi[d]:
                    v = hi[d]
                pi[d] = v
        elif synchronous:
            si = snap[i]
            acc = [0.0] * dim
            for j in range(ci):
                sj = snap[j]
                r2 = 0.0
                for d in dims:
                    dd = sj[d] - si[d]
                    diff[d] = dd
                    nd = dd * inv_w[d]
                    r2 += nd * nd
                beta = beta0 * exp(-gamma * r2)
                ek = eps[k]
                k += 1
                for d in dims:
                    acc[d] += beta * diff[d] + aw[d] * ek[d]
            for d in dims:
                v = si[d] + acc[d]
                if v < lo[d]:
                    v = lo[d]
                elif v > hi[d]:
                    v = hi[d]
                pi[d] = v
        else:
            for j in range(ci):
                pj = pos[j]
                r2 = 0.0
                for d in dims:
                    dd = pj[d] - pi[d]
                    diff[d] = dd
                    nd = dd * inv_w[d]
                    r2 += nd * nd
                beta = beta0 * exp(-gamma * r2)
                ek = eps[k]
                k += 1
                for d in dims:
                    v = pi[d] + beta * diff[d] + aw[d] * ek[d]
                    if v < lo[d]:
                        v = lo[d]
                    elif v > hi[d]:
                        v = hi[d]
                    pi[d] = v

    state.positions = np.array(pos, dtype=float)
