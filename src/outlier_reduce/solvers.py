"""Outlier-free constrained solvers: exact enumeration and local search.

For a fixed center tuple, the optimal feasible assignment of the remaining
points is a transportation problem. The engines take the centers as
facility columns and read the count rules only through the constraint's
``size_windows`` and ``label_window`` and the instance's
``windowed_labels``, the same rules ``check_counts`` reads. Every integral
problem is a rectangular linear sum assignment on expanded center slots
(``_slot_assign``; mandatory slots enforce lower bounds via penalized
dummy rows): capacities and size bounds as one, integral label windows as
one per windowed label, so a minimum that a label's clients cannot fill,
also for a label no client carries, is infeasible by the slot count
alone. Fractional fairness windows fix the cluster sizes, which nests
per-label windows inside each cluster; they alone run on the
min-cost-flow engine, once per cluster-size vector. ``solve_exact`` wraps
the assignment in an enumeration over center subsets (ordered tuples when
per-cluster bounds make clusters distinguishable) and is guarded by a
work budget. The tuples come from a cached read-only table, and one numpy
pass scores every tuple's nearest-center cost, which is the unconstrained
kinds' assignment cost and a lower bound for the constrained ones; only
tuples whose bound beats the incumbent reach the assignment engines.
``solve_local_search`` swaps single centers greedily and accepts only
strict improvements. It scores each sweep's swaps with the same numpy
pass and solves the assignment only for swaps whose bound, shrunk by a
relative ``4·n·eps`` for float summation error, still beats the
acceptance threshold; the others could not be accepted, so the result is
the one a full sweep gives.

A problem is its residual as positions into the parent's X (``rows``),
and a ``SolverResult`` is facility columns plus an assignment array over
those rows; ``OutlierFreeProblem.clusters_of`` builds refs and frozensets
for the few callers that need them. An outlier quota depends on the
residual alone, so each call tests it once and then solves unconstrained.

Anything implementing the one-function plugin signature can replace the
shipped solvers; the reduction driver treats them interchangeably.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .flow import FlowInfeasible, solve_transportation
# check is not called here, but it stays importable from this module:
# bench/tracing.py wraps solvers.check by name
from .instance import ClusteringInstance, check, check_counts

__all__ = [
    "OutlierFreeProblem",
    "SolverResult",
    "SolverPlugin",
    "ExactBudgetExceeded",
    "assign_given_centers",
    "solve_exact",
    "solve_local_search",
    "get_plugin",
    "PLUGIN_NAMES",
]

DEFAULT_WORK_BUDGET = 5_000_000
IMPROVE_ATOL = 1e-9
LOCAL_SEARCH_ITERATION_FACTOR = 200
FRACTIONAL_SIZE_VECTOR_BUDGET = 200_000
BOUND_BLOCK_ELEMENTS = 1 << 18  # 2 MB of float64 per bound block


class ExactBudgetExceeded(Exception):
    """The exact solver refused an instance beyond its work bound."""


@dataclass(frozen=True, eq=False)
class OutlierFreeProblem:
    """Residual clustering problem with the parent's F, k, constraint:
    ``rows`` is an intp array of distinct positions into ``inst.X``."""

    inst: ClusteringInstance
    rows: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def X_prime(self) -> tuple[int, ...]:
        """The residual's refs, aligned with ``rows``."""
        return tuple(self.inst.x_refs[self.rows].tolist())

    def weight_matrix(self) -> np.ndarray:
        """Powered distances X' x F, rows aligned with ``rows``."""
        return self.inst.pow_xf[self.rows]

    @classmethod
    def without(cls, inst: ClusteringInstance, removed) -> OutlierFreeProblem:
        """The problem on the clients of X not in the refs ``removed``."""
        return cls(inst, np.delete(np.arange(inst.n),
                                   [inst.xpos[x] for x in removed]))

    def clusters_of(self, assign: np.ndarray) -> tuple[frozenset[int], ...]:
        """The k clusters of refs; row u joins cluster ``assign[u]``."""
        refs = self.inst.x_refs[self.rows]
        return tuple(frozenset(refs[assign == i].tolist())
                     for i in range(self.inst.k))


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Centers at facility columns ``cols``; ``assign[u]`` is the center
    position of residual row u; ``cost`` is the clustering's cost."""

    cols: tuple[int, ...]
    assign: np.ndarray
    cost: float


@dataclass(frozen=True)
class SolverPlugin:
    name: str
    solve: Callable[[OutlierFreeProblem, int], Optional[SolverResult]]
    exactness: str  # "exact" | "heuristic"


def _assign_unconstrained(W):
    assign = W.argmin(axis=1)
    return assign, float(W[np.arange(W.shape[0]), assign].sum())


def _slot_assign(W, lower, upper):
    """Cheapest map of the rows of W onto its columns, column i taking
    between lower[i] and upper[i] rows; (assign, cost) or None.

    Column i becomes min(upper[i], n) slots for one rectangular linear sum
    assignment. When some of those slots are mandatory (the first lower[i]
    of each column), dummy rows fill the spare slots at no cost on optional
    slots and at more than any real assignment on mandatory ones; a dummy
    left on a mandatory slot means no feasible map exists.
    """
    n = W.shape[0]
    slots = [min(hi, n) for hi in upper]
    if sum(slots) < n or sum(lower) > n or any(
            lo > sl for lo, sl in zip(lower, slots)):
        return None
    col_center = np.repeat(np.arange(len(slots)), slots)
    cost_matrix = W[:, col_center]
    if any(lower):
        mandatory = [j < lo for lo, sl in zip(lower, slots) for j in range(sl)]
        big = (float(W.max(initial=0.0)) + 1.0) * (n + 1)
        dummy = np.where(mandatory, big, 0.0)
        cost_matrix = np.vstack([cost_matrix,
                                 np.tile(dummy, (len(col_center) - n, 1))])
    rows, cols = linear_sum_assignment(cost_matrix)
    if any(lower) and any(mandatory[c] for c in cols[n:].tolist()):
        return None  # a required slot went unfilled
    cost = float(cost_matrix[rows[:n], cols[:n]].sum())
    return col_center[cols[:n]], cost


def _label_window_flow(problem, k, W, windows, sizes):
    """Min-cost assignment to k centers with per-(cluster, label) count
    windows over the windowed labels.

    windows[(i, lab)] = (lo, hi); sizes[i] = (lo, hi) window on |X_i|.
    Returns (assign, cost) or None. Only fractional fairness windows,
    whose cluster sizes are fixed, need this flow.
    """
    inst = problem.inst
    n = problem.n
    labels = inst.windowed_labels
    codes = inst.label_codes[problem.rows].tolist()
    # node ids: points, then (center, label) pairs, then centers, src, sink
    pt0 = 0
    cl0 = n
    ct0 = cl0 + k * len(labels)
    src = ct0 + k
    snk = src + 1
    arcs = []
    point_arcs = []
    for u, t in enumerate(codes):
        arcs.append((src, pt0 + u, 0, 1, 0.0))
        for i in range(k):
            point_arcs.append((u, i, len(arcs)))
            arcs.append((pt0 + u, cl0 + i * len(labels) + t, 0, 1,
                         float(W[u, i])))
    for i in range(k):
        for t, lab in enumerate(labels):
            lo, hi = windows.get((i, lab), (0, n))
            arcs.append((cl0 + i * len(labels) + t, ct0 + i, lo, hi, 0.0))
        lo, hi = sizes[i]
        arcs.append((ct0 + i, snk, lo, hi, 0.0))
    try:
        cost, flows = solve_transportation(snk + 1, arcs, src, snk, n)
    except FlowInfeasible:
        return None
    assign = np.zeros(n, dtype=np.intp)
    for u, i, arc_pos in point_arcs:
        if flows[arc_pos] > 0:
            assign[u] = i
    return assign, float(cost)


def _assign_label_windows(problem, W):
    """Integral label windows: cluster sizes are free, so each label's
    window binds only its own points, one slot assignment per windowed
    label."""
    inst = problem.inst
    n, k = W.shape
    codes = inst.label_codes[problem.rows]
    assign = np.zeros(n, dtype=np.intp)
    cost = 0.0
    for t, lab in enumerate(inst.windowed_labels):
        rows = np.flatnonzero(codes == t)
        lo, hi = inst.constraint.label_window(lab, n)
        res = _slot_assign(W[rows], [lo] * k, [hi] * k)
        if res is None:
            return None
        assign[rows] = res[0]
        cost += res[1]
    return assign, cost


def _assign_fractional(problem, W):
    """Fractional windows depend on the cluster size, so enumerate exact
    cluster-size vectors and take the best feasible flow."""
    inst = problem.inst
    n, k = W.shape
    num_vectors = math.comb(n + k - 1, k - 1)
    if num_vectors * max(n, 1) > FRACTIONAL_SIZE_VECTOR_BUDGET:
        raise ExactBudgetExceeded(
            f"{num_vectors} cluster-size vectors exceed the fractional "
            "fairness budget")
    labels = inst.windowed_labels

    def count_windows(sz):
        """Per-label count windows of a cluster of size sz, or None."""
        win = {lab: inst.constraint.label_window(lab, sz) for lab in labels}
        lo_sum, hi_sum = (sum(ends) for ends in zip(*win.values()))
        feasible = all(lo <= hi for lo, hi in win.values())
        return win if feasible and lo_sum <= sz <= hi_sum else None

    per_size = [count_windows(sz) for sz in range(n + 1)]
    best = None
    for sizes_vec in _compositions(n, k):
        if any(per_size[sz] is None for sz in sizes_vec):
            continue
        windows = {(i, lab): per_size[sz][lab]
                   for i, sz in enumerate(sizes_vec) for lab in labels}
        sizes = {i: (sz, sz) for i, sz in enumerate(sizes_vec)}
        res = _label_window_flow(problem, k, W, windows, sizes)
        if res is not None and (best is None or res[1] < best[1] - IMPROVE_ATOL):
            best = res
    return best


def _assignment(problem: OutlierFreeProblem, cols, W: np.ndarray):
    """Dispatch on constraint kind; W is the n' x k powered-cost matrix for
    the centers at facility columns ``cols`` (columns aligned with them).

    Returns (assign, cost), assign[u] being the center position of
    residual row u, or None when no feasible assignment exists. The
    outlier quota is not tested here (see ``_quota_holds``).
    """
    spec = problem.inst.constraint
    if spec.kind == "label_bounds":
        return (_assign_fractional(problem, W) if spec.fractional
                else _assign_label_windows(problem, W))
    windows = spec.size_windows(cols)
    if windows is not None:
        return _slot_assign(W, *windows)
    return _assign_unconstrained(W)


def _quota_holds(problem: OutlierFreeProblem) -> bool:
    """Whether the residual's outliers meet an ``outlier_label_quota``
    (True for every other kind): the test depends on the residual alone."""
    inst = problem.inst
    if inst.constraint.kind != "outlier_label_quota":
        return True
    outliers = np.bincount(np.delete(inst.label_codes, problem.rows),
                           minlength=len(inst.windowed_labels))
    return check_counts(inst, (), (), outlier_counts=outliers)


def assign_given_centers(problem: OutlierFreeProblem,
                         centers: tuple[int, ...]):
    """Minimum-cost feasible assignment of X' to the given centers.

    Returns (clusters, cost) or None when no feasible assignment exists.
    """
    for f in centers:
        if f not in problem.inst.fpos:
            raise ValueError(f"center {f} is not a facility")
    cols = [problem.inst.fpos[f] for f in centers]
    res = _quota_holds(problem) and _assignment(
        problem, cols, problem.weight_matrix()[:, cols])
    return (problem.clusters_of(res[0]), res[1]) if res else None


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=4)
def _center_tuples(nf: int, k: int, ordered: bool) -> np.ndarray:
    """Read-only (count, k) table of facility-column tuples in enumeration
    order: k-permutations when ``ordered``, else k-combinations."""
    it = (itertools.permutations(range(nf), k) if ordered
          else itertools.combinations(range(nf), k))
    count = math.perm(nf, k) if ordered else math.comb(nf, k)
    table = np.fromiter(itertools.chain.from_iterable(it), dtype=np.intp,
                        count=count * k).reshape(count, k)
    table.flags.writeable = False
    return table


def _tuple_bounds(WT: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Nearest-center cost of X' for each tuple; WT is the F x X' matrix.

    Row t equals ``W_all[:, tuples[t]].min(axis=1).sum()`` bitwise: the
    minimum is exact, and each row is summed over its contiguous axis.
    The rows are gathered in blocks of about ``BOUND_BLOCK_ELEMENTS``.
    """
    out = np.empty(len(tuples))
    block = max(1, BOUND_BLOCK_ELEMENTS // max(WT.shape[1], 1))
    for lo in range(0, len(tuples), block):
        part = tuples[lo:lo + block]
        near = WT[part[:, 0]]
        for j in range(1, tuples.shape[1]):
            np.minimum(near, WT[part[:, j]], out=near)
        near.sum(axis=1, out=out[lo:lo + block])
    return out


def _swap_trials(cols: list[int], nf: int) -> np.ndarray:
    """Every single-center swap of ``cols`` as rows of an intp table: the
    swapped position outer, the new facility column inner (ascending),
    skipping columns already in ``cols``."""
    unused = np.ones(nf, dtype=bool)
    unused[cols] = False
    free = np.flatnonzero(unused)
    k, nfree = len(cols), len(free)
    trials = np.empty((k * nfree, k), dtype=np.intp)
    trials[:] = cols
    for i in range(k):
        trials[i * nfree:(i + 1) * nfree, i] = free
    return trials


def _proportional_draws(mass: np.ndarray, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """``count`` positions of ``mass`` drawn with replacement, each with
    probability proportional to its entry; uniformly when every entry is
    0. Zero-mass positions are otherwise never drawn."""
    n = len(mass)
    total = float(mass.sum())
    if total <= 0.0:
        return rng.integers(0, n, size=count)
    r = rng.random(count) * total
    return np.minimum(np.searchsorted(np.cumsum(mass), r, side="right"), n - 1)


def _dz_seed(W: np.ndarray, first: int, count: int,
             rng: np.random.Generator) -> list[int]:
    """Grow ``[first]`` to ``count`` distinct columns of W (clients x
    facilities): draw a client with probability proportional to its cost
    to the nearest chosen column (uniformly when every such cost is 0),
    then add the column nearest to that client that is not chosen yet,
    ties to the lowest column."""
    nf = W.shape[1]
    chosen = [first]
    while len(chosen) < count:
        x = int(_proportional_draws(W[:, chosen].min(axis=1), 1, rng)[0])
        order = np.lexsort((np.arange(nf), W[x, :]))
        chosen.append(next(int(f) for f in order if int(f) not in chosen))
    return chosen


def solve_exact(problem: OutlierFreeProblem, rng_seed: int = 0, *,
                work_budget: int = DEFAULT_WORK_BUDGET):
    """Exact optimum over all center choices; None when globally infeasible.

    Enumerates unordered k-subsets of F, or ordered k-tuples when
    per-cluster bounds make clusters distinguishable, from the cached
    tuple table. One ``_tuple_bounds`` call computes every tuple's
    nearest-center cost; the scan then visits the tuples in order and skips
    any whose cost is not below the incumbent by ``IMPROVE_ATOL``. For the
    ``unconstrained`` kind, and for an outlier quota that the residual
    meets, that cost is the answer; the other kinds solve their assignment
    for every tuple that survives. Refuses instances whose enumeration
    would exceed ``work_budget``.
    """
    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf or not _quota_holds(problem):
        return None
    ordered = inst.constraint.cluster_indexed
    num_tuples = math.perm(nf, k) if ordered else math.comb(nf, k)
    if num_tuples * max(problem.n, 1) > work_budget:
        raise ExactBudgetExceeded(
            f"{num_tuples} center tuples x {problem.n} points exceeds the "
            f"work budget {work_budget}")

    W_all = problem.weight_matrix()
    WT = np.ascontiguousarray(W_all.T)
    tuples = _center_tuples(nf, k, ordered)
    bound_only = inst.constraint.kind in ("unconstrained", "outlier_label_quota")
    best_cost = None
    best_t = None
    best_assign = None
    for t, cost in enumerate(_tuple_bounds(WT, tuples).tolist()):
        if best_cost is not None and cost >= best_cost - IMPROVE_ATOL:
            continue  # the unconstrained assignment already bounds this tuple
        if not bound_only:
            cols = tuples[t]
            res = _assignment(problem, cols, W_all[:, cols])
            if res is None:
                continue
            assign, cost = res
            if best_cost is not None and cost >= best_cost - IMPROVE_ATOL:
                continue
            best_assign = assign
        best_cost, best_t = cost, t
    if best_cost is None:
        return None
    cols = tuples[best_t]
    if bound_only:
        best_assign, best_cost = _assign_unconstrained(W_all[:, cols])
    return SolverResult(tuple(cols.tolist()), best_assign, best_cost)


def solve_local_search(problem: OutlierFreeProblem, rng_seed: int = 0):
    """Single-center-swap local search; feasible output or None.

    Seeds like the anchor solver, falls back to scanning center tuples in
    enumeration order when the seed is infeasible, then sweeps every
    single swap (swapped position outer, new facility inner) and moves to
    the first swap that beats both the current cost and every earlier
    swap of the sweep by ``IMPROVE_ATOL``, up to 200*k sweeps.
    Deterministic given the seed.

    One numpy pass scores every swap's nearest-center cost before a
    sweep. No assignment costs less than that bound, up to float
    summation error, which the relative slack ``4·n·eps`` covers; a swap
    whose bound already misses the acceptance threshold is skipped
    without solving its assignment, so the result is the one a full sweep
    gives.
    """
    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf or not _quota_holds(problem):
        return None
    rng = np.random.default_rng(rng_seed)
    W_all = problem.weight_matrix()
    cols = (_dz_seed(W_all, int(np.argmin(W_all.sum(axis=0))), k, rng)
            if problem.n else list(range(k)))

    def evaluate(cs: list[int]):
        return _assignment(problem, cs, W_all[:, cs])

    res = evaluate(cols)
    if res is None:
        ordered = inst.constraint.cluster_indexed
        it = (itertools.permutations(range(nf), k) if ordered
              else itertools.combinations(range(nf), k))
        for cand in it:
            cols = list(cand)
            res = evaluate(cols)
            if res is not None:
                break
        if res is None:
            return None
    assign, cost = res

    WT = np.ascontiguousarray(W_all.T)
    shrink = 1.0 - 4.0 * problem.n * np.finfo(float).eps
    for _ in range(LOCAL_SEARCH_ITERATION_FACTOR * k):
        trials = _swap_trials(cols, nf)
        bounds = (_tuple_bounds(WT, trials) * shrink).tolist()
        threshold = cost - IMPROVE_ATOL  # min(cost, best of sweep) - ATOL
        best = None
        for t, bound in enumerate(bounds):
            if bound >= threshold:
                continue  # its assignment cannot cost less than the bound
            t_res = evaluate(trials[t].tolist())
            if t_res is not None and t_res[1] < threshold:
                best, threshold = (t, t_res), t_res[1] - IMPROVE_ATOL
        if best is None:
            break
        cols, (assign, cost) = trials[best[0]].tolist(), best[1]
    return SolverResult(tuple(cols), assign, cost)


def get_plugin(name: str, *, work_budget: int = DEFAULT_WORK_BUDGET) -> SolverPlugin:
    if work_budget < 1:
        raise ValueError(f"work budget must be >= 1, got {work_budget}")
    if name == "exact":
        def run_exact(problem, rng_seed=0):
            return solve_exact(problem, rng_seed, work_budget=work_budget)
        return SolverPlugin("exact", run_exact, "exact")
    if name == "local-search":
        return SolverPlugin("local-search", solve_local_search, "heuristic")
    raise ValueError(f"unknown solver plugin: {name!r}")


PLUGIN_NAMES = ("exact", "local-search")
