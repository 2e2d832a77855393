"""Unconstrained anchor solver: greedy powered-distance seeding plus
single-swap local search.

The reduction needs a constant-factor unconstrained (k+m)-clustering to
anchor everything else. Seeding picks the cheapest single center on a
client sample, then repeatedly draws a client with probability
proportional to its powered distance to the current centers and adds the
nearest unused facility (the D^z seeding that the local-search plugin
shares). Local search then costs all single-center swaps in one numpy
pass per sweep and takes the cheapest, the first of equal ones, only if
it beats the current cost by the usual 1/(10 * num_centers) relative
margin, until no swap qualifies or the iteration cap of
100 * num_centers is reached. Everything is a pure function of
(instance, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from .instance import ClusteringInstance
from .solvers import _dz_seed, _swap_trials, _tuple_bounds

__all__ = ["AnchorSet", "solve_unconstrained", "anchor_cost_of"]

SEED_SAMPLE_CAP = 32
SWAP_ITERATION_FACTOR = 100


@dataclass(frozen=True)
class AnchorSet:
    centers: tuple[int, ...]
    anchor_cost: float


def anchor_cost_of(inst: ClusteringInstance, centers: Iterable[int]) -> float:
    """Sum over clients of the powered distance to the nearest center."""
    refs = sorted(set(centers))
    if not refs:
        raise ValueError("anchor cost needs a nonempty center set")
    block = inst.space.powered_rows(inst.X, refs)
    return float(block.min(axis=1).sum())


def solve_unconstrained(inst: ClusteringInstance, num_centers: int,
                        rng_seed: int) -> AnchorSet:
    """Choose ``num_centers`` distinct facilities approximately minimizing the
    nearest-center powered cost over all clients."""
    if num_centers < 1:
        raise ValueError("num_centers must be >= 1")
    if num_centers > len(inst.F):
        raise ValueError(
            f"num_centers={num_centers} exceeds |F|={len(inst.F)}")
    rng = np.random.default_rng(rng_seed)
    pow_xf = inst.pow_xf
    n, nf = pow_xf.shape

    # cheapest 1-center of a client sample
    sample = (np.arange(n) if n <= SEED_SAMPLE_CAP
              else rng.choice(n, size=SEED_SAMPLE_CAP, replace=False))
    first = int(np.argmin(pow_xf[sample, :].sum(axis=0)))
    chosen = _dz_seed(pow_xf, first, num_centers, rng)

    WT = np.ascontiguousarray(pow_xf.T)
    cost = float(_tuple_bounds(WT, np.array([chosen], dtype=np.intp))[0])
    threshold = 1.0 - 1.0 / (10.0 * num_centers)
    for _ in range(SWAP_ITERATION_FACTOR * num_centers):
        trials = _swap_trials(chosen, nf)
        if not len(trials):
            break
        costs = _tuple_bounds(WT, trials)
        best = int(np.argmin(costs))  # the first of equal minima
        if costs[best] >= threshold * cost:
            break
        chosen = trials[best].tolist()
        cost = float(costs[best])

    centers = tuple(inst.F[j] for j in sorted(chosen))
    return AnchorSet(centers=centers, anchor_cost=cost)
