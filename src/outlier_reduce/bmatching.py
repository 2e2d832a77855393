"""Exact minimum-cost bipartite b-matching.

Each right vertex j must be matched to exactly ``demands[j]`` left
vertices; each left vertex is used at most once; total edge weight is
minimized. The labelled variant additionally fixes, per right vertex,
how many of its matches carry each label.

Both shapes are rectangular linear sum assignments on slot-expanded
columns: right vertex j becomes t_j unit copies. Copies of a label only
see left vertices of that label, so the labelled variant splits into one
assignment per label. The counts alone decide feasibility, before any
solve. Among equal-weight optima each match moves to the lowest free left
position of its label and weight, so ties follow the left order rather
than the assignment code's. The matching is exact; heuristics are
deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["BMatchingProblem", "BMatchingSolution", "BMatchingInfeasible",
           "solve_bmatching", "prune_left"]


class BMatchingInfeasible(Exception):
    """The demand vector cannot be met; the message names the shortfall."""


@dataclass(frozen=True)
class BMatchingProblem:
    """Weighted bipartite demand-matching problem.

    ``weights[u, j]`` is the cost of matching left vertex u to right vertex
    j. ``left`` / ``right`` carry the callers' point refs so solutions map
    back; the solver itself only uses positions. For the labelled variant,
    ``left_labels`` aligns with ``left`` and ``label_demands[j]`` maps each
    label to the exact number of label-l matches right vertex j requires
    (the per-label counts must sum to ``demands[j]``).
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    weights: np.ndarray
    demands: tuple[int, ...]
    left_labels: tuple[str, ...] | None = None
    label_demands: tuple[Mapping[str, int], ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.left), len(self.right)):
            raise ValueError(f"weight matrix shape {w.shape} does not match "
                             f"{len(self.left)} x {len(self.right)}")
        if len(self.demands) != len(self.right):
            raise ValueError("demands must align with right vertices")
        if any(t < 0 for t in self.demands):
            raise ValueError("demands must be nonnegative")
        if (self.left_labels is None) != (self.label_demands is None):
            raise ValueError("left_labels and label_demands go together")
        if self.left_labels is not None:
            if len(self.left_labels) != len(self.left):
                raise ValueError("left_labels must align with left vertices")
            if len(self.label_demands) != len(self.right):
                raise ValueError("label_demands must align with right vertices")
            for j, (t, psi) in enumerate(zip(self.demands, self.label_demands)):
                if sum(psi.values()) != t:
                    raise ValueError(
                        f"label demands at right vertex {j} sum to "
                        f"{sum(psi.values())}, expected {t}")
        object.__setattr__(self, "weights", w)

    @property
    def labelled(self) -> bool:
        return self.left_labels is not None

    @property
    def total_demand(self) -> int:
        return sum(self.demands)


@dataclass(frozen=True)
class BMatchingSolution:
    edges: tuple[tuple[int, int], ...]   # (left ref, right ref) pairs
    total_weight: float
    matched_left: frozenset[int]


def _shortfall(prob: BMatchingProblem) -> str | None:
    """Why the demands cannot be met, or None when they can.

    Every left vertex may serve every right vertex (of its label), so the
    counts decide feasibility: the total demand, and per label the demand
    against the left vertices carrying that label.
    """
    if prob.total_demand > len(prob.left):
        return (f"total demand {prob.total_demand} exceeds "
                f"{len(prob.left)} left vertices")
    if prob.labelled:
        avail: dict[str, int] = {}
        for lab in prob.left_labels:
            avail[lab] = avail.get(lab, 0) + 1
        need: dict[str, int] = {}
        for psi in prob.label_demands:
            for lab, cnt in psi.items():
                need[lab] = need.get(lab, 0) + cnt
        for lab, cnt in sorted(need.items()):
            if cnt > avail.get(lab, 0):
                return (f"label {lab!r}: demand {cnt} exceeds "
                        f"{avail.get(lab, 0)} available left vertices")
    return None


def solve_bmatching(prob: BMatchingProblem) -> BMatchingSolution:
    """Globally minimum-weight matching meeting every demand exactly."""
    reason = _shortfall(prob)
    if reason is not None:
        raise BMatchingInfeasible(reason)
    # each right vertex j becomes t_j unit copies; the copies of a label
    # only see that label's left vertices: one assignment per label
    labels = prob.left_labels or (None,) * len(prob.left)
    demands = prob.label_demands or tuple({None: t} for t in prob.demands)
    match = {}
    for lab in sorted({lab for psi in demands for lab in psi}):
        rows = [u for u, x in enumerate(labels) if x == lab]
        copies = [j for j, psi in enumerate(demands)
                  for _ in range(psi.get(lab, 0))]
        if copies:
            block = prob.weights.take(rows, 0).take(copies, 1)
            r, c = linear_sum_assignment(block)
            match.update((rows[a], copies[b])
                         for a, b in zip(r.tolist(), c.tolist()))
    # equal weights tie: move each match to the lowest free position with
    # the same label and weight, so ties do not hinge on the assignment
    # code's internal order (one ascending pass reaches the fixed point)
    free = set(range(len(prob.left))) - match.keys()
    for u in sorted(match):
        j = match[u]
        v = min((v for v in free if v < u and labels[v] == labels[u]
                 and prob.weights[v, j] == prob.weights[u, j]), default=u)
        if v != u:
            free ^= {u, v}
            match[v] = match.pop(u)
    edges = []
    weight = 0.0
    for u, j in sorted(match.items()):
        edges.append((prob.left[u], prob.right[j]))
        weight += float(prob.weights[u, j])
    matched = frozenset(u for u, _ in edges)
    return BMatchingSolution(tuple(edges), weight, matched)


def prune_left(prob: BMatchingProblem, m: int) -> BMatchingProblem:
    """Restrict the left side to each right vertex's nearest clients.

    Keeping the max(m, total demand) nearest left vertices per right vertex
    (per (right, label) pair in the labelled case) preserves the optimum:
    if an optimal matching used a discarded vertex, some kept-and-unmatched
    vertex at no greater weight could replace it. The pruned problem has at
    most |right| * max(m, total demand) left vertices (times the number of
    labels when labelled).
    """
    keep_count = max(m, prob.total_demand)
    nl = len(prob.left)
    if nl <= keep_count:
        return prob
    keep: set[int] = set()
    for j in range(len(prob.right)):
        col = prob.weights[:, j]
        if not prob.labelled:
            order = np.lexsort((np.arange(nl), col))  # weight, then position
            keep.update(int(u) for u in order[:keep_count])
        else:
            for lab in set(prob.left_labels):
                members = [u for u in range(nl) if prob.left_labels[u] == lab]
                members.sort(key=lambda u: (col[u], u))
                keep.update(members[:keep_count])
    kept = sorted(keep)
    return BMatchingProblem(
        left=tuple(prob.left[u] for u in kept),
        right=prob.right,
        weights=prob.weights[kept, :],
        demands=prob.demands,
        left_labels=(tuple(prob.left_labels[u] for u in kept)
                     if prob.labelled else None),
        label_demands=prob.label_demands,
    )
