"""Outlier-free constrained solvers: exact enumeration and local search.

For a fixed center tuple, the optimal feasible assignment of the remaining
points is a transportation problem. Every integral one is a rectangular
linear sum assignment on expanded center slots (``_slot_assign``; mandatory
slots enforce lower bounds via penalized dummy rows), integral label
windows as one per label. Fractional fairness windows fix the cluster
sizes, which nests per-label windows inside each cluster; they alone run
on the min-cost-flow engine, per cluster-size vector in exact rational
arithmetic. ``solve_exact`` wraps the assignment in an enumeration over
center subsets (ordered tuples when per-cluster bounds make clusters
distinguishable) and is guarded by a work budget. The tuples come from a
cached read-only table, and one numpy pass per call scores every tuple's
nearest-center cost, which is the unconstrained kinds' assignment cost and
a lower bound for the constrained ones; only tuples whose bound beats the
incumbent reach the assignment engines. ``solve_local_search`` swaps
single centers greedily and accepts only strict improvements.

An ``OutlierFreeProblem`` carries its residual both as refs (``X_prime``)
and as their positions in the parent's X (``rows``), which the reduction
passes and a hand-built problem may omit. The solvers gather their cost
rows through ``rows``, with no per-point lookups.

Anything implementing the one-function plugin signature can replace the
shipped solvers; the reduction driver treats them interchangeably.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .flow import FlowInfeasible, solve_transportation
from .instance import ClusteringInstance, check

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


@dataclass(frozen=True)
class OutlierFreeProblem:
    """Residual clustering problem on X' with the parent's F, k, constraint.

    ``rows[i]`` is the position of ``X_prime[i]`` in ``inst.X``. A caller
    that knows the positions passes them; otherwise they are looked up.
    """

    inst: ClusteringInstance
    X_prime: tuple[int, ...]
    rows: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rows is None:
            xpos = self.inst.xpos
            object.__setattr__(self, "rows", np.fromiter(
                (xpos[x] for x in self.X_prime), dtype=np.intp,
                count=len(self.X_prime)))

    @property
    def n(self) -> int:
        return len(self.X_prime)

    def weight_matrix(self) -> np.ndarray:
        """Powered distances X' x F, rows aligned with X_prime."""
        return self.inst.pow_xf[self.rows]


@dataclass(frozen=True)
class SolverResult:
    clusters: tuple[frozenset[int], ...]
    centers: tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class SolverPlugin:
    name: str
    solve: Callable[[OutlierFreeProblem, int], Optional[SolverResult]]
    exactness: str  # "exact" | "heuristic"


def _clusters_from_assignment(problem: OutlierFreeProblem,
                              assign: list[int], k: int):
    # a plain loop: numpy selections are no faster at n = 2000 and twice
    # as slow at n = 30, where local search calls this once per swap trial
    groups: list[list[int]] = [[] for _ in range(k)]
    for x, i in zip(problem.X_prime, assign):
        groups[i].append(x)
    return tuple(frozenset(g) for g in groups)


def _assign_unconstrained(problem, centers, W):
    cols = W.argmin(axis=1) if W.size else np.zeros(0, dtype=int)
    cost = float(W[np.arange(len(problem.X_prime)), cols].sum()) if W.size else 0.0
    clusters = _clusters_from_assignment(problem, cols.tolist(), len(centers))
    return clusters, cost


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
    col_center = [i for i, sl in enumerate(slots) for _ in range(sl)]
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
    return [col_center[c] for c in cols[:n].tolist()], cost


def _ceil_frac(frac: Fraction, scale: int) -> int:
    return -((-frac.numerator * scale) // frac.denominator)


def _floor_frac(frac: Fraction, scale: int) -> int:
    return (frac.numerator * scale) // frac.denominator


def _label_window_flow(problem, centers, W, windows, sizes):
    """Min-cost assignment with per-(cluster, label) count windows.

    windows[(i, lab)] = (lo, hi); sizes[i] = (lo, hi) window on |X_i|.
    Returns (clusters, cost) or None. Only fractional fairness windows,
    whose cluster sizes are fixed, need this flow.
    """
    inst = problem.inst
    n = problem.n
    k = len(centers)
    labels = inst.label_names
    lab_index = {lab: t for t, lab in enumerate(labels)}
    # node ids: points, then (center, label) pairs, then centers, src, sink
    pt0 = 0
    cl0 = n
    ct0 = cl0 + k * len(labels)
    src = ct0 + k
    snk = src + 1
    arcs = []
    point_arcs = []
    for u, x in enumerate(problem.X_prime):
        arcs.append((src, pt0 + u, 0, 1, 0.0))
        t = lab_index[inst.label_of[x]]
        for i in range(k):
            point_arcs.append((u, i, len(arcs)))
            arcs.append((pt0 + u, cl0 + i * len(labels) + t, 0, 1,
                         float(W[u, i])))
    for i in range(k):
        for lab, t in lab_index.items():
            lo, hi = windows.get((i, lab), (0, n))
            arcs.append((cl0 + i * len(labels) + t, ct0 + i, lo, hi, 0.0))
        lo, hi = sizes[i]
        arcs.append((ct0 + i, snk, lo, hi, 0.0))
    try:
        cost, flows = solve_transportation(snk + 1, arcs, src, snk, n)
    except FlowInfeasible:
        return None
    assign = [0] * n
    for u, i, arc_pos in point_arcs:
        if flows[arc_pos] > 0:
            assign[u] = i
    clusters = _clusters_from_assignment(problem, assign, k)
    return clusters, float(cost)


def _assign_label_windows(problem, W):
    """Integral label windows: cluster sizes are free, so each label's
    window binds only its own points, one slot assignment per label.
    A positive minimum for a label no client carries, which ``check``
    enforces, makes every assignment infeasible."""
    spec = problem.inst.constraint
    lo_map = spec.min_per_label or {}
    hi_map = spec.max_per_label or {}
    if any(need > 0 and lab not in problem.inst.label_names
           for lab, need in lo_map.items()):
        return None
    n, k = W.shape
    labels = [problem.inst.label_of[x] for x in problem.X_prime]
    assign = [0] * n
    cost = 0.0
    for lab in problem.inst.label_names:
        rows = [u for u in range(n) if labels[u] == lab]
        res = _slot_assign(W[rows], [lo_map.get(lab, 0)] * k,
                           [hi_map.get(lab, n)] * k)
        if res is None:
            return None
        for u, i in zip(rows, res[0]):
            assign[u] = i
        cost += res[1]
    return assign, cost


def _assign_fractional(problem, centers, W):
    """Fractional windows depend on the cluster size, so enumerate exact
    cluster-size vectors and take the best feasible flow."""
    spec = problem.inst.constraint
    n = problem.n
    k = len(centers)
    num_vectors = math.comb(n + k - 1, k - 1)
    if num_vectors * max(n, 1) > FRACTIONAL_SIZE_VECTOR_BUDGET:
        raise ExactBudgetExceeded(
            f"{num_vectors} cluster-size vectors exceed the fractional "
            "fairness budget; use the local-search solver")
    labels = problem.inst.label_names
    alpha = spec.alpha or {}
    beta = spec.beta or {}

    def size_windows(sz):
        """Per-label count windows of a cluster of size sz, or None."""
        win = {lab: (_ceil_frac(alpha.get(lab, Fraction(0)), sz),
                     min(_floor_frac(beta.get(lab, Fraction(1)), sz), sz))
               for lab in labels}
        lo_sum, hi_sum = (sum(ends) for ends in zip(*win.values()))
        feasible = all(lo <= hi for lo, hi in win.values())
        return win if feasible and lo_sum <= sz <= hi_sum else None

    per_size = [size_windows(sz) for sz in range(n + 1)]
    best = None
    for sizes_vec in _compositions(n, k):
        if any(per_size[sz] is None for sz in sizes_vec):
            continue
        windows = {(i, lab): per_size[sz][lab]
                   for i, sz in enumerate(sizes_vec) for lab in labels}
        sizes = {i: (sz, sz) for i, sz in enumerate(sizes_vec)}
        res = _label_window_flow(problem, centers, W, windows, sizes)
        if res is not None and (best is None or res[1] < best[1] - IMPROVE_ATOL):
            best = res
    return best


def _assign_with_matrix(problem: OutlierFreeProblem, centers: tuple[int, ...],
                        W: np.ndarray):
    """Dispatch on constraint kind; W is the n' x k powered-cost matrix for
    exactly these centers (columns aligned with the center tuple)."""
    spec = problem.inst.constraint
    kind = spec.kind
    if kind in ("unconstrained", "outlier_label_quota"):
        clusters, cost = _assign_unconstrained(problem, centers, W)
        if kind == "outlier_label_quota" and not check(problem.inst, clusters,
                                                       centers):
            return None
        return clusters, cost
    if kind == "capacitated":
        caps = [problem.inst.capacity_of[f] for f in centers]
        res = _slot_assign(W, [0] * len(centers), caps)
    elif kind == "size_bounds":
        res = _slot_assign(W, spec.r, spec.l)
    elif kind == "label_bounds" and spec.fractional:
        return _assign_fractional(problem, centers, W)
    elif kind == "label_bounds":
        res = _assign_label_windows(problem, W)
    else:
        raise AssertionError(kind)
    if res is None:
        return None
    return _clusters_from_assignment(problem, res[0], len(centers)), res[1]


def assign_given_centers(problem: OutlierFreeProblem,
                         centers: tuple[int, ...]):
    """Minimum-cost feasible assignment of X' to the given centers.

    Returns (clusters, cost) or None when no feasible assignment exists.
    """
    for f in centers:
        if f not in problem.inst.fpos:
            raise ValueError(f"center {f} is not a facility")
    fcols = [problem.inst.fpos[f] for f in centers]
    W = problem.weight_matrix()[:, fcols]
    return _assign_with_matrix(problem, centers, W)


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
    """
    near = WT[tuples[:, 0]]
    for j in range(1, tuples.shape[1]):
        np.minimum(near, WT[tuples[:, j]], out=near)
    return near.sum(axis=1)


def solve_exact(problem: OutlierFreeProblem, rng_seed: int = 0, *,
                work_budget: int = DEFAULT_WORK_BUDGET):
    """Exact optimum over all center choices; None when globally infeasible.

    Enumerates unordered k-subsets of F, or ordered k-tuples when
    per-cluster bounds make clusters distinguishable, from the cached
    tuple table. Each tuple's nearest-center cost is computed in blocks of
    one numpy pass; the scan then visits the tuples in order and skips any
    whose cost is not below the incumbent by ``IMPROVE_ATOL``. For the
    ``unconstrained`` kind that cost is the answer, so clusters are built
    for the winner only; the other kinds solve their assignment for every
    tuple that survives. Refuses instances whose enumeration would exceed
    ``work_budget``.
    """
    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf:
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
    bound_only = inst.constraint.kind == "unconstrained"
    block = max(1, BOUND_BLOCK_ELEMENTS // max(problem.n, 1))
    best_cost = None
    best_t = None
    best_assignment = None
    for lo in range(0, num_tuples, block):
        bounds = _tuple_bounds(WT, tuples[lo:lo + block]).tolist()
        for t, cost in enumerate(bounds, lo):
            if best_cost is not None and cost >= best_cost - IMPROVE_ATOL:
                continue  # the unconstrained assignment already bounds this tuple
            if not bound_only:
                cols = tuples[t]
                centers = tuple(inst.F[j] for j in cols)
                res = _assign_with_matrix(problem, centers, W_all[:, cols])
                if res is None:
                    continue
                clusters, cost = res
                if best_cost is not None and cost >= best_cost - IMPROVE_ATOL:
                    continue
                best_assignment = clusters
            best_cost, best_t = cost, t
    if best_cost is None:
        return None
    cols = tuples[best_t]
    centers = tuple(inst.F[j] for j in cols)
    if bound_only:
        best_assignment, best_cost = _assign_unconstrained(problem, centers,
                                                           W_all[:, cols])
    return SolverResult(clusters=best_assignment, centers=centers,
                        cost=best_cost)


def _greedy_centers(problem: OutlierFreeProblem, rng: np.random.Generator,
                    W_all: np.ndarray) -> list[int]:
    n, nf = W_all.shape
    k = problem.inst.k
    if n == 0:
        return list(range(k))
    first = int(np.argmin(W_all.sum(axis=0)))
    chosen = [first]
    while len(chosen) < k:
        mass = W_all[:, chosen].min(axis=1)
        total = float(mass.sum())
        if total <= 0.0:
            x = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            x = min(int(np.searchsorted(np.cumsum(mass), r, side="right")),
                    n - 1)
        order = np.lexsort((np.arange(nf), W_all[x, :]))
        for f in order:
            if int(f) not in chosen:
                chosen.append(int(f))
                break
    return chosen


def solve_local_search(problem: OutlierFreeProblem, rng_seed: int = 0):
    """Single-center-swap local search; feasible output or None.

    Seeds like the anchor solver, falls back to scanning center tuples in
    enumeration order when the seed is infeasible, then accepts any swap
    improving the assignment cost beyond the absolute tolerance, up to
    200*k iterations. Deterministic given the seed.
    """
    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf:
        return None
    rng = np.random.default_rng(rng_seed)
    W_all = problem.weight_matrix()
    cols = _greedy_centers(problem, rng, W_all)

    def evaluate(cs: list[int]):
        centers = tuple(inst.F[j] for j in cs)
        return centers, _assign_with_matrix(problem, centers, W_all[:, cs])

    centers, res = evaluate(cols)
    if res is None:
        ordered = inst.constraint.cluster_indexed
        it = (itertools.permutations(range(nf), k) if ordered
              else itertools.combinations(range(nf), k))
        for cand in it:
            cols = list(cand)
            centers, res = evaluate(cols)
            if res is not None:
                break
        if res is None:
            return None
    clusters, cost = res

    for _ in range(LOCAL_SEARCH_ITERATION_FACTOR * k):
        best = None
        for i in range(k):
            for f in range(nf):
                if f in cols:
                    continue
                trial = cols.copy()
                trial[i] = f
                t_centers, t_res = evaluate(trial)
                if t_res is None:
                    continue
                t_clusters, t_cost = t_res
                if t_cost < cost - IMPROVE_ATOL and (
                        best is None or t_cost < best[3] - IMPROVE_ATOL):
                    best = (trial, t_centers, t_clusters, t_cost)
        if best is None:
            break
        cols, centers, clusters, cost = best
    return SolverResult(clusters=clusters, centers=centers, cost=cost)


def get_plugin(name: str, *, work_budget: int = DEFAULT_WORK_BUDGET) -> SolverPlugin:
    if name == "exact":
        def run_exact(problem, rng_seed=0):
            return solve_exact(problem, rng_seed, work_budget=work_budget)
        return SolverPlugin("exact", run_exact, "exact")
    if name == "local-search":
        return SolverPlugin("local-search", solve_local_search, "heuristic")
    raise ValueError(f"unknown solver plugin: {name!r}")


PLUGIN_NAMES = ("exact", "local-search")
