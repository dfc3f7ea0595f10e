"""The scalar attraction sweep as a plain loop over d, kept as a test oracle.

It is written apart from the package, so the tests can byte-compare
core.pairwise_sweep on both of its kernels (core._sweep_python, the plain
Python loop, and the C loop) against it: same positions, same random stream
state afterwards.  It shares only the random-step draw of one piece and the
piece size with the package; the cut into pieces is stated here again.
"""

import math
from bisect import bisect_left

import numpy as np

from fireflyopt.core import _PIECE_DOUBLES, _draw_eps_rows


def piece_rows(need, dim):
    """The step rows of each piece of a one-block sweep whose fireflies need need[i] rows.

    Fireflies join the open piece in order while its rows fit in
    _PIECE_DOUBLES doubles; one that does not fit opens the next piece, on
    its own if its rows alone do not fit.
    """
    limit = _PIECE_DOUBLES // dim
    rows = [0]
    for n in need:
        if rows[-1] and rows[-1] + n > limit:
            rows.append(0)
        rows[-1] += n
    return rows


def sweep_scalar(state, objective, params, alpha_t) -> None:
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
    walker = 0 if params.elitism else 1
    pieces = piece_rows([c or walker for c in counts], dim)
    eps = [e for rows in pieces for e in _draw_eps_rows(state.rng, rows, dim, params).tolist()]

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
