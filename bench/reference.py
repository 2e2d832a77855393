"""Independent solution checker and reference optimum.

Everything here works from the raw instance dict (coordinates or the
distance matrix as written to the instance file) and shares no code with
``outlier_reduce``: it recomputes distances itself and solves each
fixed-center problem with its own formulation. The reference optimum is
taken under "at most m outliers", separately for every k-subset of F:

* unconstrained: the nearest-center costs minus their m largest;
* capacitated: a linear sum assignment over the capacity slots plus m
  zero-cost drop columns;
* label windows: a 0/1 program solved by ``scipy.optimize.milp``.

Subsets are visited in order of their unconstrained cost, which bounds
the constrained cost from below, and the search stops once that bound
reaches the best constrained cost found.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import LinearConstraint, linear_sum_assignment, milp

REL_TOL = 1e-9


class RawInstance:
    """Powered distances and constraint data read from an instance dict."""

    def __init__(self, data: dict):
        self.z = int(data["z"])
        self.k = int(data["k"])
        self.m = int(data["m"])
        self.constraint = data["constraint"]
        self.labels = data.get("labels")
        metric = data["metric"]
        if metric["kind"] == "matrix":
            matrix = np.asarray(metric["matrix"], dtype=float)
            self.x_refs = [int(x) for x in data["points"]]
            self.f_refs = [int(f) for f in data["facilities"]]
            self._dist = lambda a, b: float(matrix[a, b])
            dist_xf = matrix[np.ix_(self.x_refs, self.f_refs)]
        elif metric["kind"] == "euclidean":
            # the file format's ground set: clients first, then each facility
            # that is not at a client's location, in file order
            table = [tuple(map(float, p)) for p in data["points"]]
            index = {p: i for i, p in enumerate(table)}
            self.x_refs = list(range(len(table)))
            self.f_refs = []
            for f in data["facilities"]:
                key = tuple(map(float, f))
                if key not in index:
                    index[key] = len(table)
                    table.append(key)
                self.f_refs.append(index[key])
            coords = np.asarray(table)
            self._dist = lambda a, b: math.dist(coords[a], coords[b])
            xs = coords[self.x_refs]
            fs = coords[self.f_refs]
            dist_xf = np.sqrt(((xs[:, None, :] - fs[None, :, :]) ** 2).sum(axis=2))
        else:
            raise ValueError(f"unsupported metric {metric['kind']!r}")
        self.pow_xf = dist_xf ** self.z
        self.n = len(self.x_refs)

    def powered(self, a: int, b: int) -> float:
        return self._dist(a, b) ** self.z

    def window(self, label: str) -> tuple[int, int]:
        lo = self.constraint.get("min_per_label", {}).get(label, 0)
        hi = self.constraint.get("max_per_label", {}).get(label, self.n)
        return lo, hi


def _unconstrained_cost(raw: RawInstance, cols: tuple[int, ...]) -> float:
    nearest = raw.pow_xf[:, cols].min(axis=1)
    if raw.m == 0:
        return float(nearest.sum())
    return float(np.sort(nearest)[:-raw.m].sum()) if raw.m < raw.n else 0.0


def _capacitated_cost(raw: RawInstance, cols: tuple[int, ...]) -> float | None:
    caps = raw.constraint["s"]
    slots = [j for j in cols for _ in range(min(caps[j], raw.n))]
    if len(slots) + raw.m < raw.n:
        return None
    weights = np.hstack([raw.pow_xf[:, slots], np.zeros((raw.n, raw.m))])
    rows, picked = linear_sum_assignment(weights)
    return float(weights[rows, picked].sum())


def _label_window_cost(raw: RawInstance, cols: tuple[int, ...]) -> float | None:
    # variables: x[i, c] (client i joins the cluster of cols[c]), then o[i]
    n, k = raw.n, len(cols)
    nx = n * k
    objective = np.concatenate([raw.pow_xf[:, cols].ravel(), np.zeros(n)])
    rows, lower, upper = [], [], []
    for i in range(n):
        row = np.zeros(nx + n)
        row[i * k:(i + 1) * k] = 1.0
        row[nx + i] = 1.0
        rows.append(row)
        lower.append(1.0)
        upper.append(1.0)
    budget = np.zeros(nx + n)
    budget[nx:] = 1.0
    rows.append(budget)
    lower.append(0.0)
    upper.append(float(raw.m))
    for label in sorted(set(raw.labels)):
        lo, hi = raw.window(label)
        members = [i for i in range(n) if raw.labels[i] == label]
        for c in range(k):
            row = np.zeros(nx + n)
            row[[i * k + c for i in members]] = 1.0
            rows.append(row)
            lower.append(float(lo))
            upper.append(float(hi))
    res = milp(objective, integrality=np.ones(nx + n),
               bounds=(0.0, 1.0),
               constraints=LinearConstraint(np.array(rows), lower, upper))
    if res.status != 0:
        return None
    return float(res.fun)


def reference_optimum(raw: RawInstance) -> float:
    """Minimum cost with at most m outliers over every k-subset of F."""
    kind = raw.constraint["kind"]
    subsets = list(itertools.combinations(range(len(raw.f_refs)), raw.k))
    bounds = [_unconstrained_cost(raw, cols) for cols in subsets]
    if kind == "unconstrained":
        return min(bounds)
    if kind == "capacitated":
        solve = _capacitated_cost
    elif kind == "label_bounds" and "alpha" not in raw.constraint:
        solve = _label_window_cost
    else:
        raise ValueError(f"no reference for constraint {raw.constraint}")
    best = math.inf
    for bound, cols in sorted(zip(bounds, subsets)):
        if bound >= best:
            break
        cost = solve(raw, cols)
        if cost is not None:
            best = min(best, cost)
    if best == math.inf:
        raise ValueError("no feasible clustering for any center set")
    return best


def check_solution(raw: RawInstance, cost: float, centers, clusters,
                   outliers) -> tuple[list[str], float]:
    """Feasibility violations of a solution and its recomputed cost."""
    problems = []
    parts = [set(outliers)] + [set(c) for c in clusters]
    covered = set().union(*parts)
    if sum(len(p) for p in parts) != len(covered) or covered != set(raw.x_refs):
        problems.append("outliers and clusters do not partition the clients")
    if len(outliers) > raw.m:
        problems.append(f"{len(outliers)} outliers exceed m={raw.m}")
    if len(centers) != raw.k or len(clusters) != raw.k:
        problems.append("number of centers or clusters differs from k")
    if len(set(centers)) != len(centers) or not set(centers) <= set(raw.f_refs):
        problems.append("centers are not distinct facilities")
    if problems:
        return problems, math.nan
    kind = raw.constraint["kind"]
    if kind == "capacitated":
        cap_of = dict(zip(raw.f_refs, raw.constraint["s"]))
        for center, members in zip(centers, clusters):
            if len(members) > cap_of[center]:
                problems.append(f"cluster of {center} exceeds its capacity")
    elif kind == "label_bounds":
        label_of = dict(zip(raw.x_refs, raw.labels))
        for members in clusters:
            for label in sorted(set(raw.labels)):
                lo, hi = raw.window(label)
                count = sum(1 for x in members if label_of[x] == label)
                if not lo <= count <= hi:
                    problems.append(f"{count} clients of {label} in one cluster")
    elif kind != "unconstrained":
        problems.append(f"no check for constraint {kind!r}")
    recomputed = math.fsum(raw.powered(x, center)
                           for center, members in zip(centers, clusters)
                           for x in members)
    if abs(recomputed - cost) > REL_TOL * max(1.0, abs(recomputed)):
        problems.append(f"reported cost {cost} differs from {recomputed}")
    return problems, recomputed


def loss_bound(z: int, m: int, epsilon: float) -> float:
    """The (1 + eps) factor the reduction with the exact solver must meet."""
    return 1.0 + epsilon ** (1.0 / z) * (2 * m + 1) ** (z - 1)
