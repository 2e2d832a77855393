"""Outlier-free constrained solvers: exact enumeration and local search.

For a fixed center tuple, the optimal feasible assignment of the remaining
points is a transportation problem. The capacity- and size-bounded kinds
reduce to rectangular linear sum assignment on expanded center slots
(mandatory slots enforce lower bounds via penalized dummy rows); the
label-window kinds run on the min-cost-flow engine, with fractional
fairness windows enumerated per cluster-size vector using exact rational
arithmetic. ``solve_exact`` wraps the assignment in an enumeration over
center subsets (ordered tuples when per-cluster bounds make clusters
distinguishable) and is guarded by a work budget. The tuples come from a
cached read-only table, and one numpy pass per call scores every tuple's
nearest-center cost, which is the unconstrained kinds' assignment cost and
a lower bound for the constrained ones; only tuples whose bound beats the
incumbent reach the assignment engines. ``solve_local_search`` swaps
single centers greedily and accepts only strict improvements.

Anything implementing the one-function plugin signature can replace the
shipped solvers; the reduction driver treats them interchangeably.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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
    """Residual clustering problem on X' with the parent's F, k, constraint."""

    inst: ClusteringInstance
    X_prime: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.X_prime)

    def weight_matrix(self) -> np.ndarray:
        """Powered distances X' x F, rows aligned with X_prime."""
        rows = [self.inst.xpos[x] for x in self.X_prime]
        return self.inst.pow_xf[rows, :]


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
    groups: list[set[int]] = [set() for _ in range(k)]
    for x, i in zip(problem.X_prime, assign):
        groups[i].add(x)
    return tuple(frozenset(g) for g in groups)


def _assign_unconstrained(problem, centers, W):
    cols = W.argmin(axis=1) if W.size else np.zeros(0, dtype=int)
    cost = float(W[np.arange(len(problem.X_prime)), cols].sum()) if W.size else 0.0
    clusters = _clusters_from_assignment(problem, [int(c) for c in cols],
                                         len(centers))
    return clusters, cost


def _assign_capacitated(problem, centers, W):
    inst = problem.inst
    n = problem.n
    caps = [min(inst.capacity_of[f], n) for f in centers]
    if sum(caps) < n:
        return None
    col_center = [i for i, c in enumerate(caps) for _ in range(c)]
    cost_matrix = W[:, col_center]
    rows, cols = linear_sum_assignment(cost_matrix)
    assign = [0] * n
    for r, c in zip(rows, cols):
        assign[r] = col_center[c]
    cost = float(cost_matrix[rows, cols].sum())
    return _clusters_from_assignment(problem, assign, len(centers)), cost


def _assign_size_bounds(problem, centers, W):
    spec = problem.inst.constraint
    n = problem.n
    k = len(centers)
    slots = [min(spec.l[i], n) for i in range(k)]
    if any(spec.r[i] > slots[i] for i in range(k)) or sum(spec.r) > n:
        return None
    total_slots = sum(slots)
    if total_slots < n:
        return None
    col_center, col_mandatory = [], []
    for i in range(k):
        for j in range(slots[i]):
            col_center.append(i)
            col_mandatory.append(j < spec.r[i])
    num_dummy = total_slots - n
    big = (float(W.max(initial=0.0)) + 1.0) * (n + 1)
    cost_matrix = np.zeros((total_slots, total_slots))
    if n:
        cost_matrix[:n, :] = W[:, col_center]
    for d in range(num_dummy):
        cost_matrix[n + d, :] = [big if mand else 0.0 for mand in col_mandatory]
    rows, cols = linear_sum_assignment(cost_matrix)
    assign = [0] * n
    for r, c in zip(rows, cols):
        if r < n:
            assign[r] = col_center[c]
        elif col_mandatory[c]:
            return None  # a required slot went unfilled
    clusters = _clusters_from_assignment(problem, assign, k)
    cost = float(sum(cost_matrix[r, c] for r, c in zip(rows, cols) if r < n))
    return clusters, cost


def _ceil_frac(frac: Fraction, scale: int) -> int:
    return -((-frac.numerator * scale) // frac.denominator)


def _floor_frac(frac: Fraction, scale: int) -> int:
    return (frac.numerator * scale) // frac.denominator


def _label_window_flow(problem, centers, W, windows, sizes):
    """Min-cost assignment with per-(cluster, label) count windows.

    windows[(i, lab)] = (lo, hi); sizes[i] = (lo, hi) window on |X_i|.
    Returns (clusters, cost) or None.
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


def _assign_label_bounds(problem, centers, W):
    spec = problem.inst.constraint
    n = problem.n
    k = len(centers)
    if not spec.fractional:
        lo_map = spec.min_per_label or {}
        hi_map = spec.max_per_label or {}
        windows = {}
        for i in range(k):
            for lab in problem.inst.label_names:
                windows[(i, lab)] = (lo_map.get(lab, 0),
                                     min(hi_map.get(lab, n), n))
        sizes = {i: (0, n) for i in range(k)}
        return _label_window_flow(problem, centers, W, windows, sizes)

    # fractional windows depend on the cluster size, so enumerate exact
    # cluster-size vectors and take the best feasible flow
    num_vectors = math.comb(n + k - 1, k - 1)
    if num_vectors * max(n, 1) > FRACTIONAL_SIZE_VECTOR_BUDGET:
        raise ExactBudgetExceeded(
            f"{num_vectors} cluster-size vectors exceed the fractional "
            "fairness budget; use the local-search solver")
    alpha = spec.alpha or {}
    beta = spec.beta or {}
    best = None
    for sizes_vec in _compositions(n, k):
        windows = {}
        ok = True
        for i, sz in enumerate(sizes_vec):
            lo_sum = 0
            hi_sum = 0
            for lab in problem.inst.label_names:
                a = alpha.get(lab, Fraction(0))
                b = beta.get(lab, Fraction(1))
                lo = _ceil_frac(a, sz)
                hi = min(_floor_frac(b, sz), sz)
                if lo > hi:
                    ok = False
                    break
                windows[(i, lab)] = (lo, hi)
                lo_sum += lo
                hi_sum += hi
            if not ok or lo_sum > sz or hi_sum < sz:
                ok = False
                break
        if not ok:
            continue
        sizes = {i: (sz, sz) for i, sz in enumerate(sizes_vec)}
        res = _label_window_flow(problem, centers, W, windows, sizes)
        if res is not None and (best is None or res[1] < best[1] - IMPROVE_ATOL):
            best = res
    return best


def _assign_with_matrix(problem: OutlierFreeProblem, centers: tuple[int, ...],
                        W: np.ndarray):
    """Dispatch on constraint kind; W is the n' x k powered-cost matrix for
    exactly these centers (columns aligned with the center tuple)."""
    kind = problem.inst.constraint.kind
    if kind in ("unconstrained", "outlier_label_quota"):
        clusters, cost = _assign_unconstrained(problem, centers, W)
        if kind == "outlier_label_quota" and not check(problem.inst, clusters,
                                                       centers):
            return None
        return clusters, cost
    if kind == "capacitated":
        return _assign_capacitated(problem, centers, W)
    if kind == "size_bounds":
        return _assign_size_bounds(problem, centers, W)
    if kind == "label_bounds":
        return _assign_label_bounds(problem, centers, W)
    raise AssertionError(kind)


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
