"""Brute-force ground truth for desk-scale verification.

``exact_outlier_opt`` enumerates every admissible outlier set and solves
each residual instance exactly, so its output is the true optimum the
reduction is measured against. It deliberately shares nothing with the
reduction pipeline beyond the cost/check primitives and the exact
solver with its ``solution_of``. ``ulam_bfs`` independently recomputes the
permutation move distance by breadth-first search over states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Sequence

from .instance import ClusteringInstance, Solution
from .solvers import OutlierFreeProblem, solve_exact

__all__ = ["OracleBudget", "OracleBudgetExceeded", "exact_outlier_opt",
           "ulam_bfs", "ulam_bfs_distances"]

BFS_MAX_LEN = 6


class OracleBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_n: int = 12
    max_k: int = 3
    max_m: int = 2
    max_f: int = 12

    def admit(self, inst: ClusteringInstance) -> None:
        if inst.n > self.max_n or inst.k > self.max_k \
                or inst.m > self.max_m or len(inst.F) > self.max_f:
            raise OracleBudgetExceeded(
                f"instance (n={inst.n}, k={inst.k}, m={inst.m}, "
                f"|F|={len(inst.F)}) exceeds the oracle budget {self}")


def _outlier_sets(inst: ClusteringInstance):
    """All admissible outlier sets, smallest first, lexicographic within size."""
    spec = inst.constraint
    if spec.kind == "outlier_label_quota":
        # exactly quota[l] outliers of each label
        by_label: dict[str, list[int]] = {}
        for x, lab in zip(inst.X, inst.labels):
            by_label.setdefault(lab, []).append(x)
        needed = [(lab, cnt) for lab, cnt in sorted(spec.quota.items()) if cnt]
        if sum(cnt for _, cnt in needed) > inst.m:
            return
        pools = []
        for lab, cnt in needed:
            members = sorted(by_label.get(lab, []))
            if len(members) < cnt:
                return
            pools.append(list(itertools.combinations(members, cnt)))
        for combo in itertools.product(*pools):
            yield tuple(sorted(x for group in combo for x in group))
        return
    for size in range(min(inst.m, inst.n) + 1):
        yield from itertools.combinations(sorted(inst.X), size)


def exact_outlier_opt(inst: ClusteringInstance,
                      budget: OracleBudget = OracleBudget()):
    """True optimum over every outlier set within the budget m.

    Returns (optimal cost, one optimal Solution); enumeration order is
    fixed, so the returned solution is reproducible. Raises
    OracleBudgetExceeded above the budget and ValueError when no feasible
    solution exists at all.
    """
    budget.admit(inst)
    best: tuple[float, Solution] | None = None
    for removed in _outlier_sets(inst):
        problem = OutlierFreeProblem.without(
            inst, [inst.xpos[x] for x in removed])
        result = solve_exact(problem)
        if result is not None and (best is None
                                   or result.cost < best[0] - 1e-12):
            best = (result.cost, problem.solution_of(result))
    if best is None:
        raise ValueError("instance is infeasible for every outlier choice")
    return best


def _moves(state: tuple[int, ...]):
    n = len(state)
    for i in range(n):
        rest = state[:i] + state[i + 1:]
        for j in range(n):
            if j != i:
                yield rest[:j] + (state[i],) + rest[j:]


def ulam_bfs_distances(p: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Move distances from p to every permutation of the same length."""
    start = tuple(int(v) for v in p)
    if len(start) > BFS_MAX_LEN:
        raise ValueError(f"BFS oracle capped at length {BFS_MAX_LEN}")
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for s in frontier:
            for t in _moves(s):
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    return dist


def ulam_bfs(p: Sequence[int], q: Sequence[int]) -> int:
    """Minimum number of single-element moves turning p into q."""
    start = tuple(int(v) for v in p)
    goal = tuple(int(v) for v in q)
    if len(start) != len(goal):
        raise ValueError("permutation lengths differ")
    if len(start) > BFS_MAX_LEN:
        raise ValueError(f"BFS oracle capped at length {BFS_MAX_LEN}")
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for s in frontier:
            for t in _moves(s):
                if t == goal:
                    return d
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    raise AssertionError("unreachable: move graph is connected")
