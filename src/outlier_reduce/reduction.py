"""End-to-end reduction from outlier to outlier-free constrained clustering.

The driver obtains k+m anchor centers from the unconstrained baseline,
draws the far-outlier candidate pool, and then enumerates every pair
(Y, tau) of a candidate far-outlier subset Y and a valid demand tuple tau
(nonnegative per-anchor counts with sum |Y| + sum(tau) = m). Each pair
yields an outlier-free instance: a minimum-cost b-matching removes, for
every anchor, exactly tau_j nearby points (the near-outlier guesses), the
union of Y and the matched points is discarded, and the pluggable solver
clusters the rest. The cheapest feasible solution over all pairs wins.

What does not depend on the pair is prepared once per run: the X x
anchors cost block, and each anchor's clients (per label when labelled)
sorted by (cost, position). A pair's matching then takes the first
max(m, sum(tau)) entries of each order that are not in Y, the left side
that pruning the pair's full problem would keep, and its residual reaches
the solver as positions into X (``OutlierFreeProblem.rows``). The time
spent preparing counts toward the matching stage.

Points of Y never appear on the matching's left side, so no point is
removed twice. Duplicate pool draws collapse before subset enumeration;
identical Y sets would produce identical subinstances. Pairs that remove
the same set share one solver call; only the first pair's index and cost
are kept, since a later pair ties in cost and loses on index. Iterations
may be fanned out to a thread pool; the winner is chosen by (cost,
iteration index), making parallel and serial runs byte-identical.

For squared-distance costs the configured epsilon is tightened to
epsilon^2 / (2m+1)^2 before use (once), which turns the raw additive
guarantee into a plain (1+epsilon) factor; the substitution can be
disabled to study the raw behavior.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterator

import numpy as np

from .baseline import AnchorSet, solve_unconstrained
# prune_left is not called here, but it stays importable from this module:
# bench/tracing.py wraps reduction.prune_left by name
from .bmatching import (BMatchingInfeasible, BMatchingProblem, nearest_orders,
                        prune_left, select_nearest, solve_bmatching)
from .instance import ClusteringInstance, Solution, check
from .sampling import SamplePool, dz_sample, exhaustive_pool, sample_size
from .solvers import OutlierFreeProblem, SolverPlugin, _compositions

__all__ = [
    "ValidTuple",
    "ReductionConfig",
    "IterationRecord",
    "ReductionResult",
    "ReductionInfeasible",
    "PluginContractError",
    "effective_epsilon",
    "default_beta",
    "enumerate_outlier_subsets",
    "enumerate_valid_tuples",
    "run_reduction",
]

COST_ZERO_ATOL = 1e-12

log = logging.getLogger("outlier_reduce.reduction")


class ReductionInfeasible(Exception):
    """Every (Y, tau) pair led to an infeasible matching or solver call."""


class PluginContractError(Exception):
    """A solver plugin returned a clustering that fails its own contract."""


def default_beta(z: int) -> float:
    """Pessimistic approximation factor assumed for the baseline solver."""
    return 5.0 if z == 1 else 25.0


def effective_epsilon(epsilon: float, z: int, m: int, *,
                      enabled: bool = True) -> float:
    """Tightened epsilon for squared costs; identity for z=1 or when disabled."""
    if z == 2 and enabled:
        return epsilon ** 2 / (2 * m + 1) ** 2
    return epsilon


@dataclass(frozen=True)
class ValidTuple:
    """Per-anchor near-outlier counts; psi splits each count by label."""

    t: tuple[int, ...]
    psi: tuple[tuple[int, ...], ...] | None = None


@dataclass
class ReductionConfig:
    epsilon: float = 0.5
    beta: float | None = None       # default depends on z; see default_beta
    baseline_seed: int = 0
    sample_seed: int = 0
    sampling: str = "random"        # "random" | "exhaustive"
    z2_substitution: bool = True
    parallel: int = 1
    early_stop_zero: bool = False

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.sampling not in ("random", "exhaustive"):
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")


@dataclass
class IterationRecord:
    index: int
    Y: tuple[int, ...]
    tau: ValidTuple
    matching_weight: float | None
    solver_cost: float | None
    feasible: bool
    wall_time: float


@dataclass
class ReductionResult:
    solution: Solution
    records: list[IterationRecord]
    q: int
    effective_epsilon: float
    beta: float
    anchors: AnchorSet
    pool: SamplePool
    chosen_Y: tuple[int, ...]
    chosen_tau: ValidTuple
    timings: dict = field(default_factory=dict)


def enumerate_outlier_subsets(pool: SamplePool, m: int) -> Iterator[tuple[int, ...]]:
    """Distinct subsets of the pool of size 0..m, by size then lexicographic."""
    distinct = pool.distinct
    for size in range(min(m, len(distinct)) + 1):
        yield from itertools.combinations(distinct, size)


def enumerate_valid_tuples(residual: int, slots: int,
                           num_labels: int | None = None) -> Iterator[ValidTuple]:
    """All ways to spread ``residual`` near-outliers over ``slots`` anchors.

    With ``num_labels``, each per-anchor count t_j is further split into all
    label partitions (tuples of num_labels nonnegative ints summing to t_j).
    """
    if residual < 0:
        raise ValueError("residual must be nonnegative")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    for t in _compositions(residual, slots):
        if num_labels is None:
            yield ValidTuple(t=t)
        else:
            per_slot = [list(_compositions(tj, num_labels)) for tj in t]
            for combo in itertools.product(*per_slot):
                yield ValidTuple(t=t, psi=tuple(combo))


class _Prepared:
    """Pair-independent state of one run, built once before the pairs.

    The X x anchors block is read once, and each anchor's clients (per
    label when labelled) are sorted once by (weight, position). A pair's
    matching problem takes, per order, the first entries outside Y; that is
    the left side ``prune_left`` keeps on the pair's full problem (X minus Y
    against the anchors), because removing Y keeps the clients in X order.
    Residuals are passed to the solver by their positions in X.
    """

    def __init__(self, inst: ClusteringInstance, anchors: AnchorSet,
                 labelled: bool):
        self.inst = inst
        self.right = anchors.centers
        self.labels = inst.labels if labelled else None
        self.weights = inst.space.powered_rows(inst.X, self.right)
        self.orders = nearest_orders(self.weights, self.labels)

    def matching_problem(self, Y: tuple[int, ...],
                         tau: ValidTuple) -> BMatchingProblem:
        """The pair's b-matching, pruned as ``prune_left(..., m)`` would.

        When at most max(m, sum(tau)) clients remain outside Y, each order
        yields all of its clients outside Y: nothing is pruned, as in
        prune_left.
        """
        inst = self.inst
        kept = select_nearest(self.orders, max(inst.m, sum(tau.t)),
                              {inst.xpos[y] for y in Y})
        left = tuple(inst.X[u] for u in kept)
        weights = self.weights[kept]
        if self.labels is None:
            return BMatchingProblem(left=left, right=self.right,
                                    weights=weights, demands=tau.t)
        label_demands = tuple(dict(zip(inst.label_names, psi_j))
                              for psi_j in tau.psi)
        return BMatchingProblem(
            left=left, right=self.right, weights=weights,
            demands=tau.t, left_labels=tuple(self.labels[u] for u in kept),
            label_demands=label_demands)

    def residual(self, removed: frozenset[int]) -> OutlierFreeProblem:
        """The outlier-free problem on X minus ``removed``."""
        inst = self.inst
        rows = np.delete(np.arange(inst.n), [inst.xpos[x] for x in removed])
        return OutlierFreeProblem(inst, tuple(inst.x_refs[rows].tolist()),
                                  rows)


def _validate_plugin_output(inst: ClusteringInstance, x_prime: tuple[int, ...],
                            result) -> None:
    # X' has distinct members, so sizes summing to |X'| and a union of
    # |X'| members that contains X' make the clusters a partition of X'
    clustered = set().union(*result.clusters)
    if (sum(len(c) for c in result.clusters) != len(x_prime)
            or len(clustered) != len(x_prime)
            or not clustered.issuperset(x_prime)):
        raise PluginContractError(
            "plugin clustering does not partition the residual point set")
    if len(result.centers) != inst.k:
        raise PluginContractError("plugin returned a wrong number of centers")
    if not check(inst, result.clusters, result.centers):
        raise PluginContractError("plugin clustering fails check()")


def run_reduction(inst: ClusteringInstance, config: ReductionConfig,
                  plugin: SolverPlugin) -> ReductionResult:
    """Execute the full reduction and return the best feasible solution.

    Raises ReductionInfeasible when no (Y, tau) pair yields a feasible
    matching and solver call, and PluginContractError when the plugin
    violates its feasibility contract.
    """
    z = inst.space.z
    m = inst.m
    eff_eps = effective_epsilon(config.epsilon, z, m,
                                enabled=config.z2_substitution)
    beta = config.beta if config.beta is not None else default_beta(z)

    t0 = time.perf_counter()
    num_anchors = min(inst.k + m, len(inst.F))
    if num_anchors < inst.k + m:
        log.warning("only %d facilities for %d anchor slots; running with "
                    "a shorter anchor set", len(inst.F), inst.k + m)
    anchors = solve_unconstrained(inst, num_anchors, config.baseline_seed)
    t_baseline = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.sampling == "exhaustive":
        pool = exhaustive_pool(inst)
    else:
        count = sample_size(beta, m, eff_eps)
        pool = (dz_sample(inst, anchors, count, config.sample_seed) if count
                else SamplePool(draws=(), distinct=(), mode="random"))
    t_sampling = time.perf_counter() - t0

    labelled = inst.constraint.uses_labels
    num_labels = len(inst.label_names) if labelled else None
    t0 = time.perf_counter()
    prepared = _Prepared(inst, anchors, labelled)
    t_prepare = time.perf_counter() - t0
    iterations = []
    for Y in enumerate_outlier_subsets(pool, m):
        for tau in enumerate_valid_tuples(m - len(Y), num_anchors, num_labels):
            iterations.append((len(iterations), Y, tau))
    q = len(iterations)

    # removed set -> (first index that solved it, its cost or None). A later
    # pair with the same set has an equal cost and a larger index, so it
    # can never win and needs no solution. Under threads a larger index may
    # get there first; the smaller one then solves again.
    solver_cache: dict[frozenset[int], tuple[int, float | None]] = {}
    timings = {"baseline": t_baseline, "sampling": t_sampling,
               "matching": t_prepare, "solver": 0.0}

    def run_iteration(item):
        """(record, solution or None, matching seconds, solver seconds)."""
        index, Y, tau = item
        start = time.perf_counter()
        try:
            matching = solve_bmatching(prepared.matching_problem(Y, tau))
        except BMatchingInfeasible:
            t_match = time.perf_counter() - start
            return (IterationRecord(index, Y, tau, None, None, False, t_match),
                    None, t_match, 0.0)
        ts = time.perf_counter()
        t_match = ts - start
        removed = frozenset(Y) | matching.matched_left
        result = None
        cached = solver_cache.get(removed)
        if cached is not None and cached[0] < index:
            cost = cached[1]
        else:
            problem = prepared.residual(removed)
            result = plugin.solve(problem, config.baseline_seed)
            if result is not None:
                _validate_plugin_output(inst, problem.X_prime, result)
            cost = None if result is None else result.cost
            solver_cache[removed] = (index, cost)
        end = time.perf_counter()
        record = IterationRecord(index, Y, tau, matching.total_weight, cost,
                                 cost is not None, end - start)
        solution = None if result is None else Solution(
            outliers=removed, clusters=result.clusters,
            centers=result.centers, cost=result.cost)
        return record, solution, t_match, end - ts

    records: list[IterationRecord] = []
    best: tuple[float, int, Solution, tuple, ValidTuple] | None = None
    chunk = max(1, 4 * config.parallel)

    def consume(outcomes, items):
        # stage times are summed here, on the calling thread only
        nonlocal best
        for (record, solution, t_match, t_solve), (index, Y, tau) in zip(
                outcomes, items):
            records.append(record)
            timings["matching"] += t_match
            timings["solver"] += t_solve
            if solution is not None:
                key = (solution.cost, index)
                if best is None or key < (best[0], best[1]):
                    best = (solution.cost, index, solution, Y, tau)

    if config.parallel == 1:
        for start in range(0, q, chunk):
            items = iterations[start:start + chunk]
            consume([run_iteration(it) for it in items], items)
            if config.early_stop_zero and best and best[0] <= COST_ZERO_ATOL:
                break
    else:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool_exec:
            for start in range(0, q, chunk):
                items = iterations[start:start + chunk]
                consume(list(pool_exec.map(run_iteration, items)), items)
                if config.early_stop_zero and best and best[0] <= COST_ZERO_ATOL:
                    break

    if best is None:
        raise ReductionInfeasible(
            f"all {q} (Y, tau) iterations were infeasible")
    _, _, solution, chosen_Y, chosen_tau = best
    return ReductionResult(
        solution=solution, records=records, q=q, effective_epsilon=eff_eps,
        beta=beta, anchors=anchors, pool=pool, chosen_Y=chosen_Y,
        chosen_tau=chosen_tau, timings=timings)
