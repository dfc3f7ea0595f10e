"""The multiswarm generation as one core.step per swarm, kept as a test oracle.

variants.multiswarm_step moves all its swarms in one stacked generation
(core.step_swarms).  This is the loop that it replaced, written out again:
the same sentinel phase, then core.step on each swarm with budget left, in
swarm order, then the same exclusion and anti-convergence.  The tests
compare the two byte for byte.
"""

import numpy as np

from fireflyopt.core import Firefly, checked_rows, step
from fireflyopt.variants import (
    CHANGE_TOLERANCE,
    _exclusion_victims,
    _pair_distances,
    _probe_sentinels,
    _rerandomize,
)


def multiswarm_step_per_swarm(swarms, config, objective, params, sentinels, log=None):
    """variants.multiswarm_step with one core.step call per swarm."""
    fresh = _probe_sentinels(sentinels, swarms, objective)
    if sentinels.values is None:
        sentinels.values = fresh
    elif np.any(np.abs(fresh - sentinels.values) > CHANGE_TOLERANCE):
        values = iter(checked_rows(objective, np.concatenate([swarm.positions for swarm in swarms])))
        for swarm in swarms:
            swarm.fitness = np.fromiter(values, float, len(swarm.fitness))
            swarm.fes_used += len(swarm.fitness)
            i = int(np.argmin(swarm.fitness))
            swarm.best = Firefly(swarm.positions[i].copy(), float(swarm.fitness[i]))
        sentinels.values = _probe_sentinels(sentinels, swarms, objective)
        if log is not None:
            log.append({"event": "change"})

    for swarm in swarms:
        if swarm.fes_used < params.max_fes:
            step(swarm, objective, params)

    bests = [s.best for s in swarms]
    victims = _exclusion_victims(bests, objective, config.exclusion_radius)
    for idx in victims:
        _rerandomize(swarms[idx], objective)
        if log is not None:
            log.append({"event": "exclusion", "swarm": idx})

    if len(swarms) > 1 and not victims and all(b is not None for b in bests):
        diameters = _pair_distances(np.stack([s.positions for s in swarms]), objective).max(axis=(1, 2))
        if (diameters < config.anticonvergence_radius).all():
            worst = max(range(len(swarms)), key=lambda k: bests[k].fitness)
            _rerandomize(swarms[worst], objective)
            if log is not None:
                log.append({"event": "anticonvergence", "swarm": worst})
    return swarms
