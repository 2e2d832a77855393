"""Exact minimum-cost bipartite b-matching.

Each right vertex j must be matched to exactly ``demands[j]`` left
vertices; each left vertex is used at most once; total edge weight is
minimized. The labelled variant additionally fixes, per right vertex,
how many of its matches carry each label.

Vertices are positions: left rows and right columns of the weight
matrix, and labels are integer codes that index each right vertex's
count tuple. A caller keeps its own map from rows to points and from
codes to label names.

Both shapes are rectangular linear sum assignments on slot-expanded
columns: right vertex j becomes t_j unit copies. Copies of a label only
see left vertices of that label, so the labelled variant splits into one
assignment per label. The counts alone decide feasibility, before any
solve. Among equal-weight optima each match moves to the lowest free left
row of its label and weight, so ties follow the row order rather than the
assignment code's. The matching is exact; heuristics are deliberately not
offered.

``prune_left`` keeps, per right vertex (and label), the nearest
max(m, total demand) left rows. Its rule comes in two steps, so that a
caller can sort once and prune many times: ``nearest_orders`` sorts each
right vertex's left rows by (weight, row), and ``select_nearest`` takes
the first entries of each order outside an excluded set. The reduction
sorts every anchor's clients once per run and excludes each pair's Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence, Set as AbstractSet

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["BMatchingProblem", "BMatchingSolution", "BMatchingInfeasible",
           "solve_bmatching", "prune_left", "nearest_orders",
           "select_nearest"]


class BMatchingInfeasible(Exception):
    """The demands cannot be met; ``reason`` says why. When one label's
    demand exceeds its left rows, ``label`` is that label's code."""

    def __init__(self, reason: str, label: int | None = None):
        super().__init__(reason if label is None
                         else f"label {label}: {reason}")
        self.reason = reason
        self.label = label


@dataclass(frozen=True)
class BMatchingProblem:
    """Weighted bipartite demand-matching problem.

    ``weights[u, j]`` is the cost of matching left row u to right vertex
    j. For the labelled variant, ``left_labels[u]`` is row u's label code
    and ``label_demands[j][c]`` the exact number of matches of code c that
    right vertex j requires (each tuple sums to ``demands[j]``). A row
    whose code has no entry in the tuples is never matched.
    """

    weights: np.ndarray
    demands: tuple[int, ...]
    left_labels: Sequence[int] | None = None
    label_demands: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != len(self.demands):
            raise ValueError(f"weight matrix shape {w.shape} does not have "
                             f"one column per demand ({len(self.demands)})")
        if any(t < 0 for t in self.demands):
            raise ValueError("demands must be nonnegative")
        if (self.left_labels is None) != (self.label_demands is None):
            raise ValueError("left_labels and label_demands go together")
        if self.left_labels is not None:
            object.__setattr__(self, "left_labels", tuple(self.left_labels))
            if len(self.left_labels) != len(w):
                raise ValueError("left_labels must align with left rows")
            if len(self.label_demands) != len(self.demands):
                raise ValueError("label_demands must align with right vertices")
            if len({len(psi) for psi in self.label_demands}) > 1:
                raise ValueError("label_demands need one count per label code")
            for j, (t, psi) in enumerate(zip(self.demands, self.label_demands)):
                if sum(psi) != t:
                    raise ValueError(
                        f"label demands at right vertex {j} sum to "
                        f"{sum(psi)}, expected {t}")
        object.__setattr__(self, "weights", w)

    @property
    def labelled(self) -> bool:
        return self.left_labels is not None

    @property
    def total_demand(self) -> int:
        return sum(self.demands)


@dataclass(frozen=True)
class BMatchingSolution:
    """Matched left ``rows`` in ascending order, each with its right vertex
    in ``cols``; ``total_weight`` sums the matches in row order."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    total_weight: float


def _shortfall(prob: BMatchingProblem) -> None:
    """Raise BMatchingInfeasible unless the demands can be met.

    Every left row may serve every right vertex (of its label), so the
    counts decide feasibility: the total demand, and per label the demand
    against the rows carrying that label.
    """
    if prob.total_demand > len(prob.weights):
        raise BMatchingInfeasible(f"total demand {prob.total_demand} exceeds "
                                  f"{len(prob.weights)} left vertices")
    if prob.labelled:
        for lab, need in enumerate(map(sum, zip(*prob.label_demands))):
            have = prob.left_labels.count(lab)
            if need > have:
                raise BMatchingInfeasible(
                    f"demand {need} exceeds {have} available left vertices",
                    lab)


def solve_bmatching(prob: BMatchingProblem) -> BMatchingSolution:
    """Globally minimum-weight matching meeting every demand exactly."""
    _shortfall(prob)
    # each right vertex j becomes t_j unit copies; the copies of a label
    # only see that label's left rows: one assignment per label (an
    # unlabelled problem is a labelled one with a single code, 0)
    nl = len(prob.weights)
    labels = prob.left_labels or (0,) * nl
    demands = prob.label_demands or tuple((t,) for t in prob.demands)
    match = {}
    for lab in range(len(demands[0]) if demands else 0):
        copies = [j for j, psi in enumerate(demands) for _ in range(psi[lab])]
        if copies:
            rows = [u for u, x in enumerate(labels) if x == lab]
            block = prob.weights.take(rows, 0).take(copies, 1)
            r, c = linear_sum_assignment(block)
            match.update((rows[a], copies[b])
                         for a, b in zip(r.tolist(), c.tolist()))
    # equal weights tie: move each match to the lowest free row with the
    # same label and weight, so ties do not hinge on the assignment code's
    # internal order (one ascending pass reaches the fixed point)
    free = set(range(nl)) - match.keys()
    for u in sorted(match):
        j = match[u]
        v = min((v for v in free if v < u and labels[v] == labels[u]
                 and prob.weights[v, j] == prob.weights[u, j]), default=u)
        if v != u:
            free ^= {u, v}
            match[v] = match.pop(u)
    rows = tuple(sorted(match))
    cols = tuple(match[u] for u in rows)
    weight = 0.0
    for u, j in zip(rows, cols):
        weight += float(prob.weights[u, j])
    return BMatchingSolution(rows, cols, weight)


def nearest_orders(
        weights: np.ndarray,
        left_labels: Sequence[int] | None = None) -> list[np.ndarray]:
    """Left rows by (weight, row), one order per right vertex.

    With ``left_labels``, one order per (right vertex, label) pair, each
    holding only that label's rows. The orders depend on the weights
    alone, so a caller that removes different left rows from one weight
    block can sort once and select many times.
    """
    nl, nr = weights.shape
    if left_labels is None:
        groups = [np.arange(nl)]
    else:
        labels = np.asarray(left_labels)
        groups = [np.flatnonzero(labels == lab)
                  for lab in sorted(set(left_labels))]
    return [g[np.lexsort((g, weights[g, j]))]
            for j in range(nr) for g in groups]


def select_nearest(orders: Sequence[np.ndarray], keep_count: int,
                   excluded: AbstractSet[int] = frozenset()) -> list[int]:
    """Sorted union of each order's first ``keep_count`` rows that are not
    in ``excluded``; the pruning rule of ``prune_left``."""
    keep: set[int] = set()
    for order in orders:
        head = order[:keep_count + len(excluded)].tolist()
        keep.update([u for u in head if u not in excluded][:keep_count])
    return sorted(keep)


def prune_left(prob: BMatchingProblem,
               m: int) -> tuple[list[int], BMatchingProblem]:
    """Restrict the left side to each right vertex's nearest rows; return
    the kept rows of ``prob`` in ascending order and the problem on them.

    Keeping the max(m, total demand) nearest left rows per right vertex
    (per (right, label) pair in the labelled case) preserves the optimum:
    if an optimal matching used a discarded row, some kept-and-unmatched
    row at no greater weight could replace it. The pruned problem has at
    most |right| * max(m, total demand) left rows (times the number of
    labels when labelled); when ``prob`` has no more rows than that, it is
    returned as it is.
    """
    keep_count = max(m, prob.total_demand)
    if len(prob.weights) <= keep_count:
        return list(range(len(prob.weights))), prob
    kept = select_nearest(nearest_orders(prob.weights, prob.left_labels),
                          keep_count)
    return kept, BMatchingProblem(
        weights=prob.weights[kept, :],
        demands=prob.demands,
        left_labels=(tuple(prob.left_labels[u] for u in kept)
                     if prob.labelled else None),
        label_demands=prob.label_demands,
    )
