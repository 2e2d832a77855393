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
anchors cost block, each client's label code (its index into
``label_names``, the order of ``tau.psi``), and each anchor's clients (per
label when labelled) sorted by (cost, position). A pair's matching then
takes the first m entries of each order that are not in Y, the left side
that pruning the pair's full problem keeps (tau sums to m - |Y|), and
matches on those rows with tau's counts as they are. The pair's removed
set is a sorted tuple of X positions, Y's and the matched rows'; it keys
the solver cache, and its complement reaches the solver as positions
(``OutlierFreeProblem.rows``). The time spent preparing counts toward the
matching stage. A plugin answers in positions too: facility columns and
an assignment array. The reduction re-checks its shape, then its counts and
cost with ``eval``'s helpers, and builds refs and frozensets only for a
result that becomes the incumbent (``OutlierFreeProblem.solution_of``).

Points of Y never appear on the matching's left side, so no point is
removed twice. Duplicate pool draws collapse before subset enumeration;
identical Y sets would produce identical subinstances. Pairs that remove
the same set share one solver call; only the set's cost is kept, since a
later pair ties in cost and loses on index. Pairs run serially in index
order, and the winner is the first pair of least cost.
``ReductionConfig.parallel`` is still accepted, but every setting runs
the same serial loop, so outputs do not depend on it.

For squared-distance costs the configured epsilon is tightened to
epsilon^2 / (2m+1)^2 before use (once), which turns the raw additive
guarantee into a plain (1+epsilon) factor; the substitution can be
disabled to study the raw behavior.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from collections.abc import Iterator

import numpy as np

from .baseline import AnchorSet, solve_unconstrained
# prune_left and check are not called here, but they stay importable from
# this module: bench/tracing.py wraps reduction.prune_left and
# reduction.check by name
from .bmatching import (BMatchingInfeasible, BMatchingProblem, nearest_orders,
                        prune_left, select_nearest, solve_bmatching)
from .instance import (ClusteringInstance, Solution, check, check_counts,
                       clustering_cost, clustering_counts, cost_agrees)
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
    """A solver plugin returned a malformed, infeasible or mispriced result."""


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
    parallel: int = 1               # accepted; pairs always run serially
    early_stop_zero: bool = False

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        # beta is an approximation factor, and it sizes the sample pool
        if self.beta is not None and not (math.isfinite(self.beta)
                                          and self.beta >= 1):
            raise ValueError("beta must be a finite number >= 1")
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

    The X x anchors block is taken once from the instance's X x F block,
    each client's label is coded once by its index into ``label_names``
    (the order of ``tau.psi``), and each anchor's clients (per label when
    labelled) are sorted once by (weight, position). A pair's matching
    problem takes, per order, the first entries outside Y; that is the left
    side ``prune_left`` keeps on the pair's full problem (X minus Y against
    the anchors), because removing Y keeps the clients in X order.
    """

    def __init__(self, inst: ClusteringInstance, anchors: AnchorSet,
                 labelled: bool):
        self.inst = inst
        self.weights = inst.pow_xf[:, [inst.fpos[f] for f in anchors.centers]]
        self.codes = (np.searchsorted(inst.label_names, inst.labels).tolist()
                      if labelled else None)
        self.orders = nearest_orders(self.weights, self.codes)

    def matching_problem(self, excluded: set[int], tau: ValidTuple
                         ) -> tuple[list[int], BMatchingProblem]:
        """The X positions of the pair's left rows, ascending, and its
        b-matching on them; Y is given as the positions ``excluded``. Each
        order yields its first m clients outside Y, all of them when fewer
        remain: ``prune_left(..., m)`` keeps max(m, sum(tau)) = m."""
        kept = select_nearest(self.orders, self.inst.m, excluded)
        labels = (None if self.codes is None
                  else tuple(self.codes[u] for u in kept))
        return kept, BMatchingProblem(self.weights[kept], tau.t, labels,
                                      tau.psi)


def _validate_plugin_output(problem: OutlierFreeProblem, result) -> None:
    """Raise PluginContractError unless ``result`` maps every residual row
    to one of k facility columns, passes ``check_counts`` and costs what it
    reports, judged as ``validate_solution`` judges a solution file."""
    inst, k = problem.inst, problem.inst.k
    assign = np.asarray(result.assign)
    cols = np.asarray(result.cols, dtype=np.intp)
    if (assign.shape != (problem.n,) or cols.shape != (k,)
            or not np.all((0 <= cols) & (cols < len(inst.F)))
            or problem.n and (assign.dtype.kind not in "iu"
                              or not 0 <= assign.min() <= assign.max() < k)):
        raise PluginContractError("plugin result does not map each residual "
                                  "point to one of k facility columns")
    assign = assign.astype(np.intp, copy=False)
    if not check_counts(inst, cols.tolist(),
                        *clustering_counts(inst, problem.rows, assign)):
        raise PluginContractError("plugin clustering fails check()")
    cost = clustering_cost(inst, problem.rows, assign, cols)
    if not cost_agrees(result.cost, cost):
        raise PluginContractError(
            f"plugin reported cost {result.cost}, its clustering costs {cost}")


def run_reduction(inst: ClusteringInstance, config: ReductionConfig,
                  plugin: SolverPlugin) -> ReductionResult:
    """Execute the full reduction and return the best feasible solution.

    Raises ReductionInfeasible when no (Y, tau) pair yields a feasible
    matching and solver call, and PluginContractError when the plugin
    breaks its contract.
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
    pairs = [(Y, tau) for Y in enumerate_outlier_subsets(pool, m)
             for tau in enumerate_valid_tuples(m - len(Y), num_anchors,
                                               num_labels)]
    q = len(pairs)

    # removed positions -> their cost, or None when the solver found none
    solver_cache: dict[tuple[int, ...], float | None] = {}
    timings = {"baseline": t_baseline, "sampling": t_sampling,
               "matching": t_prepare, "solver": 0.0}
    records: list[IterationRecord] = []
    best: tuple[Solution, tuple[int, ...], ValidTuple] | None = None
    for index, (Y, tau) in enumerate(pairs):
        start = time.perf_counter()
        ypos = [inst.xpos[y] for y in Y]
        kept, pair_problem = prepared.matching_problem(set(ypos), tau)
        try:
            matching = solve_bmatching(pair_problem)
        except BMatchingInfeasible:
            t_match = time.perf_counter() - start
            timings["matching"] += t_match
            records.append(IterationRecord(index, Y, tau, None, None, False,
                                           t_match))
            continue
        # the pair's removed set: Y and the matched rows, as X positions
        removed = tuple(sorted(ypos + [kept[u] for u in matching.rows]))
        ts = time.perf_counter()
        timings["matching"] += ts - start
        if removed in solver_cache:
            cost = solver_cache[removed]
        else:
            problem = OutlierFreeProblem.without(inst, removed)
            result = plugin.solve(problem, config.baseline_seed)
            cost = None if result is None else result.cost
            if result is not None:
                _validate_plugin_output(problem, result)
                # a tie keeps the earlier pair: the winner is the first
                # cheapest pair in index order
                if best is None or cost < best[0].cost:
                    best = (problem.solution_of(result), Y, tau)
            solver_cache[removed] = cost
        end = time.perf_counter()
        timings["solver"] += end - ts
        records.append(IterationRecord(index, Y, tau, matching.total_weight,
                                       cost, cost is not None, end - start))
        if (config.early_stop_zero and best is not None
                and best[0].cost <= COST_ZERO_ATOL):
            break

    if best is None:
        raise ReductionInfeasible(
            f"all {q} (Y, tau) iterations were infeasible")
    solution, chosen_Y, chosen_tau = best
    return ReductionResult(
        solution=solution, records=records, q=q, effective_epsilon=eff_eps,
        beta=beta, anchors=anchors, pool=pool, chosen_Y=chosen_Y,
        chosen_tau=chosen_tau, timings=timings)
