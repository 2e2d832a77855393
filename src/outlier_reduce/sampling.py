"""Powered-distance sampling of the far-outlier candidate pool.

Candidates are drawn with replacement, each with probability proportional
to its powered distance to the anchor centers, so points far from every
anchor (the ones no matching step can recover) land in the pool with high
probability. The exhaustive mode short-circuits the randomness by taking
the whole client set; downstream guarantees then hold deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import AnchorSet
from .instance import ClusteringInstance
from .solvers import _proportional_draws

__all__ = ["SamplePool", "dz_sample", "exhaustive_pool", "sample_size"]


@dataclass(frozen=True)
class SamplePool:
    draws: tuple[int, ...]        # multiset of client refs, in draw order
    distinct: tuple[int, ...]     # deduplicated, ascending
    mode: str                     # "random" | "exhaustive"


def sample_size(beta: float, m: int, epsilon: float, *,
                constant: float = 4.0) -> int:
    """Pool size constant*beta*m*log(m)/epsilon, rounded up.

    log m degenerates for m in {0, 1}: at m=0 no pool is needed at all, and
    at m=1 we substitute log 2 so a single far outlier can still be caught.
    The leading constant of 4 backs the 1 - 1/m^2 per-point capture bound;
    it is exposed so smaller pools can be studied empirically
    (scripts/capture_sweep.py).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if m == 0:
        return 0
    return math.ceil(constant * beta * m * math.log(max(m, 2)) / epsilon)


def dz_sample(inst: ClusteringInstance, anchors: AnchorSet, count: int,
              rng_seed: int) -> SamplePool:
    """Draw ``count`` clients with replacement, each with probability
    proportional to its powered distance to the anchor centers.

    Zero-mass clients are never drawn; when every client has zero mass the
    draws fall back to uniform. Deterministic given the seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not inst.X:
        raise ValueError("cannot sample from an empty client set")
    mass = inst.pow_xf[:, [inst.fpos[f] for f in anchors.centers]].min(axis=1)
    idx = _proportional_draws(mass, count, np.random.default_rng(rng_seed))
    draws = tuple(inst.X[i] for i in idx)
    return SamplePool(draws=draws, distinct=tuple(sorted(set(draws))),
                      mode="random")


def exhaustive_pool(inst: ClusteringInstance) -> SamplePool:
    """Pool containing every client; removes all sampling randomness."""
    return SamplePool(draws=tuple(inst.X),
                      distinct=tuple(sorted(set(inst.X))),
                      mode="exhaustive")
