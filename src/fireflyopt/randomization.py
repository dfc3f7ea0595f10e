"""Random-step generators and parameter schedules.

Every generator here is a pure function of the generator state and its
arguments: replaying the same state reproduces the same values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("constant", "geometric", "chaotic")
CHAOTIC_MAPS = ("logistic",)

# Fixed points (and points that map onto them) of the logistic map at r=4;
# starting there would freeze or kill a chaotic schedule.
_LOGISTIC_DEGENERATE = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ScheduleDescriptor:
    """How the randomization scale alpha evolves over generations.

    kind:
        "constant"  -- alpha0 forever
        "geometric" -- alpha0 * ratio**t
        "chaotic"   -- alpha0 * (t-th iterate of the chaotic map from x0)
    """

    kind: str
    alpha0: float
    ratio: float = 0.97
    map_id: str = "logistic"
    x0: float = 0.7

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if self.alpha0 < 0:
            raise ValueError(f"alpha0 must be >= 0, got {self.alpha0}")
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValueError(f"geometric ratio must lie strictly inside (0, 1), got {self.ratio}")
        if self.kind == "chaotic":
            if self.map_id not in CHAOTIC_MAPS:
                raise ValueError(f"unknown chaotic map {self.map_id!r}")
            if not 0.0 < self.x0 < 1.0 or self.x0 in _LOGISTIC_DEGENERATE:
                raise ValueError(
                    f"chaotic x0 must lie in (0, 1) away from {_LOGISTIC_DEGENERATE}, got {self.x0}"
                )


def gaussian_step(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent standard-normal draws."""
    if n <= 0:
        raise ValueError(f"step length must be positive, got {n}")
    return rng.standard_normal(n)


def uniform_centered_step(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws of U(0,1) - 0.5, each in [-0.5, 0.5]."""
    if n <= 0:
        raise ValueError(f"step length must be positive, got {n}")
    return rng.random(n) - 0.5


def mantegna_sigma(index: float) -> float:
    """Scale of the numerator normal in Mantegna's heavy-tail construction.

    ``index`` is the stable index in (0, 2).
    """
    if not 0.0 < index < 2.0:
        raise ValueError(f"stable index must lie in (0, 2), got {index}")
    num = math.gamma(1.0 + index) * math.sin(math.pi * index / 2.0)
    den = math.gamma((1.0 + index) / 2.0) * index * 2.0 ** ((index - 1.0) / 2.0)
    return (num / den) ** (1.0 / index)


def levy_step(rng: np.random.Generator, n: int, lam: float = 1.5) -> np.ndarray:
    """n heavy-tailed draws via Mantegna's construction.

    ``lam`` is the tail exponent of the jump-length power law, in (1, 3):
    larger lam means lighter tails.  Internally this maps to the stable
    index ``lam - 1`` so the whole (1, 3) range is usable; the classic
    default 1.5 gives very heavy tails suited to occasional long jumps.
    """
    if n <= 0:
        raise ValueError(f"step length must be positive, got {n}")
    if not 1.0 < lam < 3.0:
        raise ValueError(f"tail exponent must lie in (1, 3), got {lam}")
    index = lam - 1.0
    sigma_u = mantegna_sigma(index)
    u = rng.normal(0.0, sigma_u, n)
    v = rng.standard_normal(n)
    return u / np.abs(v) ** (1.0 / index)


def logistic_next(x: float) -> float:
    """One iterate of the logistic map at full chaos: 4 x (1 - x)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"logistic map input must lie in [0, 1], got {x}")
    return 4.0 * x * (1.0 - x)


def alpha_at(schedule: ScheduleDescriptor, t: int) -> float:
    """Randomization scale at generation t under the given schedule."""
    if t < 0:
        raise ValueError(f"generation index must be >= 0, got {t}")
    if schedule.kind == "constant":
        return schedule.alpha0
    if schedule.kind == "geometric":
        return schedule.alpha0 * schedule.ratio**t
    x = schedule.x0
    for _ in range(t):
        x = logistic_next(x)
    return schedule.alpha0 * x
