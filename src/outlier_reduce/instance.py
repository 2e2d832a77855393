"""Instance data model, feasibility predicate and cost function.

An instance holds the metric space over the deduplicated ground set
X ∪ F, the client list X, the candidate-center list F, the cluster count
k, the outlier budget m, optional per-client labels, and a declarative
constraint. Feasibility (``check_counts``) depends only on cluster sizes,
per-(cluster, label) and outlier label counts and the centers' facility
columns. The cost is the sum of powered distances from each clustered
point to its center. The reduction's check of a plugin answer and ``eval``'s
share three helpers on X positions ``rows`` (ascending) and an ``assign``
array: ``clustering_counts``, ``clustering_cost`` and the one cost rule
``cost_agrees``; ``check`` and ``cost`` turn ref clusters into that form.

Every count rule lives in ``ConstraintSpec``: ``size_windows`` gives the
per-cluster size windows of centers at given facility columns, and
``label_window`` the count window of one label in a cluster of a given
size, fractional bounds rounded inward exactly. ``check_counts`` and the
assignment engines in ``solvers`` read only these two and the instance's
``windowed_labels``, so they enforce one and the same predicate.

Instance files are JSON::

    {
      "metric": {"kind": "euclidean", "dim": 2}
                | {"kind": "matrix", "matrix": [[...], ...]}
                | {"kind": "ulam", "perm_len": 5},
      "z": 1,
      "points": [[x, y], ...],        # matrix kind: ground-set indices
      "facilities": [[x, y], ...],
      "k": 2,
      "m": 1,
      "labels": ["a", "b", ...],      # required iff constraint uses labels
      "constraint": {"kind": "unconstrained"}
    }

Constraint objects::

    {"kind": "unconstrained"}
    {"kind": "size_bounds", "r": [..k..], "l": [..k..]}
    {"kind": "capacitated", "s": [..|F|..]}
    {"kind": "label_bounds", "min_per_label": {...}, "max_per_label": {...}}
    {"kind": "label_bounds", "alpha": {"a": "1/3"}, "beta": {"a": "2/3"}}
    {"kind": "outlier_label_quota", "quota": {"a": 1}}

Unknown fields are rejected. Fractional fairness bounds are parsed into
exact rationals and rounded to integer counts exactly, never through
floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from .metric import COST_ATOL, MetricSpace, euclidean_space, matrix_space, ulam_space

__all__ = [
    "ConstraintSpec",
    "ClusteringInstance",
    "Solution",
    "ValidationReport",
    "check",
    "check_counts",
    "cost",
    "validate_solution",
    "load_instance",
    "instance_from_dict",
    "instance_to_dict",
    "solution_to_dict",
    "solution_from_dict",
]

LABEL_KINDS = frozenset({"label_bounds", "outlier_label_quota"})
CONSTRAINT_KINDS = frozenset(
    {"unconstrained", "size_bounds", "capacitated"}) | LABEL_KINDS


def _parse_fraction(value: Any) -> Fraction:
    # "1/3" stays exact; bare numbers go through their decimal literal so that
    # e.g. 0.3 means 3/10, not the binary float.
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(str(value))


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative feasibility constraint, dispatched on ``kind``."""

    kind: str
    r: tuple[int, ...] | None = None                 # size_bounds lower
    l: tuple[int, ...] | None = None                 # size_bounds upper
    s: tuple[int, ...] | None = None                 # capacity per facility slot
    min_per_label: Mapping[str, int] | None = None   # label_bounds, integer
    max_per_label: Mapping[str, int] | None = None
    alpha: Mapping[str, Fraction] | None = None      # label_bounds, fractional
    beta: Mapping[str, Fraction] | None = None
    quota: Mapping[str, int] | None = None           # outlier_label_quota

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind: {self.kind!r}")
        if self.kind == "size_bounds":
            if self.r is None or self.l is None:
                raise ValueError("size_bounds needs r and l vectors")
            if len(self.r) != len(self.l):
                raise ValueError("r and l must have equal length")
            for ri, li in zip(self.r, self.l):
                if ri < 0 or li < 0:
                    raise ValueError("size bounds must be nonnegative")
                if ri > li:
                    raise ValueError(f"lower bound {ri} exceeds upper bound {li}")
        elif self.kind == "capacitated":
            if self.s is None:
                raise ValueError("capacitated needs capacities s")
            if any(c < 0 for c in self.s):
                raise ValueError("capacities must be nonnegative")
        elif self.kind == "label_bounds":
            fractional = self.alpha is not None or self.beta is not None
            integral = self.min_per_label is not None or self.max_per_label is not None
            if fractional == integral:
                raise ValueError(
                    "label_bounds needs either integer windows or alpha/beta "
                    "fractions, not both")
            if fractional:
                for lab in set(self.alpha or {}) | set(self.beta or {}):
                    a = (self.alpha or {}).get(lab, Fraction(0))
                    b = (self.beta or {}).get(lab, Fraction(1))
                    if not (0 <= a <= b <= 1):
                        raise ValueError(
                            f"need 0 <= alpha <= beta <= 1 for label {lab!r}")
            else:
                for bounds in (self.min_per_label, self.max_per_label):
                    if bounds and any(v < 0 for v in bounds.values()):
                        raise ValueError("label count bounds must be nonnegative")
        elif self.kind == "outlier_label_quota":
            if self.quota is None:
                raise ValueError("outlier_label_quota needs a quota map")
            if any(v < 0 for v in self.quota.values()):
                raise ValueError("quotas must be nonnegative")

    @property
    def uses_labels(self) -> bool:
        return self.kind in LABEL_KINDS

    @property
    def cluster_indexed(self) -> bool:
        """True when clusters are distinguishable (non-uniform per-cluster bounds),
        so center tuples are ordered rather than unordered sets."""
        if self.kind != "size_bounds":
            return False
        return len(set(self.r)) > 1 or len(set(self.l)) > 1

    @property
    def fractional(self) -> bool:
        return self.kind == "label_bounds" and (
            self.alpha is not None or self.beta is not None)

    def size_windows(self, cols: Iterable[int]):
        """Per-cluster (lower, upper) sizes for centers at the given facility
        columns, or None when cluster sizes are free. Only the capacitated
        kind reads ``cols``."""
        if self.kind == "size_bounds":
            return self.r, self.l
        if self.kind == "capacitated":
            upper = tuple(self.s[j] for j in cols)
            return (0,) * len(upper), upper
        return None

    def label_window(self, lab: str, size: int) -> tuple[int, int]:
        """(lo, hi) count of label ``lab`` in a label_bounds cluster of
        ``size`` points: alpha·size rounded up to beta·size rounded down,
        or the integral minimum to the integral maximum."""
        if self.fractional:
            a = (self.alpha or {}).get(lab, Fraction(0))
            b = (self.beta or {}).get(lab, Fraction(1))
            return math.ceil(a * size), math.floor(b * size)
        return ((self.min_per_label or {}).get(lab, 0),
                (self.max_per_label or {}).get(lab, size))


class ClusteringInstance:
    """Immutable clustering instance over a shared ground set.

    ``X`` and ``F`` are lists of ground-set refs. Clients and facilities
    may coincide (shared refs); duplicates within X or within F are
    rejected at load so that clusters are plain sets of refs.
    """

    def __init__(self, space: MetricSpace, X: Sequence[int], F: Sequence[int],
                 k: int, m: int, labels: Sequence[str] | None,
                 constraint: ConstraintSpec):
        if k < 1:
            raise ValueError("k must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        if len(set(X)) != len(X):
            raise ValueError("duplicate client refs in X")
        if len(set(F)) != len(F):
            raise ValueError("duplicate facility refs in F")
        if not F:
            raise ValueError("facility set F must be nonempty")
        if constraint.uses_labels and labels is None:
            raise ValueError(f"constraint kind {constraint.kind!r} requires labels")
        if labels is not None and not constraint.uses_labels:
            raise ValueError("labels given but the constraint does not use them")
        if labels is not None and len(labels) != len(X):
            raise ValueError("labels must align with X")
        if constraint.kind == "size_bounds" and len(constraint.r) != k:
            raise ValueError("size_bounds vectors must have length k")
        if constraint.kind == "capacitated" and len(constraint.s) != len(F):
            raise ValueError("capacities must align with F")

        self.space = space
        self.X = tuple(int(x) for x in X)
        self.F = tuple(int(f) for f in F)
        self.k = k
        self.m = m
        self.labels = tuple(labels) if labels is not None else None
        self.constraint = constraint

        notes = []
        if m > len(X) - k:
            notes.append(f"outlier budget m={m} exceeds n-k={len(X) - k}; "
                         "a nonempty feasible clustering need not exist")
        if k > len(F):
            notes.append(f"k={k} exceeds |F|={len(F)}; no center set exists")
        if constraint.kind == "outlier_label_quota":
            if sum(constraint.quota.values()) > m:
                notes.append("outlier label quotas sum beyond the budget m")
        self.notes = tuple(notes)

        self.label_names = (tuple(sorted(set(self.labels)))
                            if self.labels is not None else None)
        # the labels whose counts can bind: every label present, any that
        # an integral minimum names, which no cluster can then meet, and any
        # with a positive outlier quota, which no outlier set can then meet
        self.windowed_labels = (tuple(sorted(
            set(self.label_names) | set(constraint.min_per_label or {})
            | {lab for lab, c in (constraint.quota or {}).items() if c > 0}))
            if self.labels is not None else None)
        # each client's label as its index into (sorted) windowed_labels
        self.label_codes = None
        if self.labels is not None:
            self.label_codes = np.searchsorted(self.windowed_labels, self.labels)
            self.label_codes.flags.writeable = False
        # Dense powered-distance block X x F, the hot lookup everywhere.
        self.pow_xf = space.powered_rows(self.X, self.F)
        self.pow_xf.flags.writeable = False
        self.xpos = {x: i for i, x in enumerate(self.X)}
        # X as a read-only array, so residuals given by position map to refs
        self.x_refs = np.array(self.X, dtype=np.intp)
        self.x_refs.flags.writeable = False
        self.fpos = {f: j for j, f in enumerate(self.F)}

    @property
    def n(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class Solution:
    outliers: frozenset[int]
    clusters: tuple[frozenset[int], ...]
    centers: tuple[int, ...]
    cost: float


@dataclass
class ValidationReport:
    feasible: bool
    recomputed_cost: float
    violations: list[str] = field(default_factory=list)


def check_counts(inst: ClusteringInstance, cols: Iterable[int],
                 sizes: Sequence[int], label_counts=None,
                 outlier_counts=None) -> bool:
    """The feasibility predicate, on counts alone: the centers' facility
    ``cols`` (read by the capacitated kind only) and the k cluster
    ``sizes``; labelled kinds also read ``label_counts``, clients per
    (cluster, label), or ``outlier_counts``, outliers per label, with labels
    indexed like ``inst.windowed_labels``."""
    spec = inst.constraint
    if spec.kind == "outlier_label_quota":
        return all(spec.quota.get(lab, 0) == count for lab, count in
                   zip(inst.windowed_labels, np.asarray(outlier_counts).tolist()))
    sizes = np.asarray(sizes).tolist()
    windows = spec.size_windows(cols)
    if windows is not None and not all(
            lo <= sz <= hi for lo, hi, sz in zip(*windows, sizes)):
        return False
    if spec.kind == "label_bounds":
        for row, sz in zip(np.asarray(label_counts).tolist(), sizes):
            for lab, count in zip(inst.windowed_labels, row):
                lo, hi = spec.label_window(lab, sz)
                if not lo <= count <= hi:
                    return False
    return True


def clustering_counts(inst: ClusteringInstance, rows: np.ndarray,
                      assign: np.ndarray):
    """``check_counts``' sizes, label and outlier counts when client
    ``X[rows[u]]`` joins cluster ``assign[u]``; the rest are outliers."""
    sizes = np.bincount(assign, minlength=inst.k)
    if inst.labels is None:
        return sizes, None, None
    codes, k, nl = inst.label_codes, inst.k, len(inst.windowed_labels)
    return (sizes, np.bincount(assign * nl + codes[rows],
                               minlength=k * nl).reshape(k, nl),
            np.bincount(np.delete(codes, rows), minlength=nl))


def clustering_cost(inst: ClusteringInstance, rows: np.ndarray,
                    assign: np.ndarray, cols: np.ndarray) -> float:
    """Cost when client ``X[rows[u]]`` is served from facility column
    ``cols[assign[u]]``, summed in ``rows`` order (callers: ascending)."""
    return float(inst.pow_xf[rows, cols[assign]].sum())


def cost_agrees(stated: float, recomputed: float) -> bool:
    """The one cost rule: relative 1e-9, ``COST_ATOL`` the floor near 0."""
    return math.isclose(stated, recomputed, rel_tol=1e-9, abs_tol=COST_ATOL)


def _positions(inst: ClusteringInstance, clusters: Sequence[Iterable[int]]):
    """(rows ascending, assign) of k collections of client refs."""
    pairs = sorted({(inst.xpos[x], i)
                    for i, members in enumerate(clusters) for x in members})
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def check(inst: ClusteringInstance, clusters: Sequence[Iterable[int]],
          centers: Sequence[int]) -> bool:
    """``check_counts`` for k collections of client refs and k center refs;
    the outliers are the clients in no cluster."""
    if len(clusters) != inst.k or len(centers) != inst.k:
        raise ValueError(f"expected {inst.k} clusters and centers")
    # lazy, so that kinds which ignore centers never look them up
    return check_counts(inst, (inst.fpos[f] for f in centers),
                        *clustering_counts(inst, *_positions(inst, clusters)))


def cost(inst: ClusteringInstance, clusters: Sequence[Iterable[int]],
         centers: Sequence[int]) -> float:
    """Sum of powered distances from each clustered point to its own center."""
    return clustering_cost(inst, *_positions(inst, clusters), np.array(
        [inst.fpos[f] for f in centers], dtype=np.intp))


def validate_solution(inst: ClusteringInstance, sol: Solution) -> ValidationReport:
    """Recompute partition, budget, check and cost; report every violation."""
    violations = []
    all_parts = [set(sol.outliers)] + [set(c) for c in sol.clusters]
    seen: set[int] = set()
    for part in all_parts:
        overlap = seen & part
        if overlap:
            violations.append(f"overlap: points {sorted(overlap)} appear twice")
        seen |= part
    xset = set(inst.X)
    missing = sorted(xset - seen)
    extra = sorted(seen - xset)
    if missing:
        violations.append(f"partition misses points {missing}")
    if extra:
        violations.append(f"partition contains foreign points {extra}")
    if len(sol.outliers) > inst.m:
        violations.append(
            f"outlier budget: |X_0|={len(sol.outliers)} exceeds m={inst.m}")
    if len(sol.clusters) != inst.k or len(sol.centers) != inst.k:
        violations.append("cluster/center count differs from k")
        return ValidationReport(False, float("nan"), violations)
    for f in sol.centers:
        if f not in inst.fpos:
            violations.append(f"center {f} is not a facility")
            return ValidationReport(False, float("nan"), violations)
    if extra:  # neither counts nor costs are defined off X
        return ValidationReport(False, float("nan"), violations)
    if not check(inst, sol.clusters, sol.centers):
        violations.append("check() rejects the clustering")
    recomputed = cost(inst, sol.clusters, sol.centers)
    if not cost_agrees(sol.cost, recomputed):
        violations.append(
            f"cost mismatch: stated {sol.cost}, recomputed {recomputed}")
    return ValidationReport(not violations, recomputed, violations)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_TOP_FIELDS = {"metric", "z", "points", "facilities", "k", "m", "labels",
               "constraint"}


def _reject_unknown(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")


def _build_ground_set(points: list, facilities: list, point):
    """Deduplicate X ∪ F, each raw point mapped to a tuple by ``point``, into
    a ground table; return (table, X refs, F refs)."""
    index: dict = {}
    refs_x = [index.setdefault(point(p), len(index)) for p in points]
    refs_f = [index.setdefault(point(p), len(index)) for p in facilities]
    return list(index), refs_x, refs_f


def instance_from_dict(data: Mapping[str, Any]) -> ClusteringInstance:
    _reject_unknown(data, _TOP_FIELDS, "instance")
    for required in ("metric", "z", "points", "facilities", "k", "m", "constraint"):
        if required not in data:
            raise ValueError(f"instance is missing field {required!r}")
    metric = data["metric"]
    _reject_unknown(metric, {"kind", "dim", "perm_len", "matrix"}, "metric")
    kind = metric.get("kind")
    z = int(data["z"])
    points = list(data["points"])
    facilities = list(data["facilities"])

    if kind == "matrix":
        refs_x = [int(i) for i in points]
        refs_f = [int(i) for i in facilities]
        space = matrix_space(metric["matrix"], z)
        for r in refs_x + refs_f:
            if not (0 <= r < space.size):
                raise ValueError(f"ref {r} outside the distance matrix")
    elif kind == "euclidean":
        dim = int(metric["dim"])
        table, refs_x, refs_f = _build_ground_set(points, facilities, lambda p: tuple(
            map(float, [p] if dim == 1 and not isinstance(p, (list, tuple)) else p)))
        space = euclidean_space(table, z, dim)
    elif kind == "ulam":
        perm_len = int(metric["perm_len"])
        table, refs_x, refs_f = _build_ground_set(
            points, facilities, lambda p: tuple(map(int, p)))
        space = ulam_space(table, z, perm_len)
    else:
        raise ValueError(f"unknown metric kind: {kind!r}")

    constraint = constraint_from_dict(data["constraint"])
    labels = data.get("labels")
    return ClusteringInstance(space, refs_x, refs_f, int(data["k"]),
                              int(data["m"]), labels, constraint)


def constraint_from_dict(data: Mapping[str, Any]) -> ConstraintSpec:
    kind = data.get("kind")
    if kind == "unconstrained":
        _reject_unknown(data, {"kind"}, "constraint")
        return ConstraintSpec("unconstrained")
    if kind == "size_bounds":
        _reject_unknown(data, {"kind", "r", "l"}, "constraint")
        return ConstraintSpec("size_bounds", r=tuple(int(v) for v in data["r"]),
                              l=tuple(int(v) for v in data["l"]))
    if kind == "capacitated":
        _reject_unknown(data, {"kind", "s"}, "constraint")
        return ConstraintSpec("capacitated", s=tuple(int(v) for v in data["s"]))
    if kind == "label_bounds":
        _reject_unknown(data, {"kind", "min_per_label", "max_per_label",
                               "alpha", "beta"}, "constraint")
        if "alpha" in data or "beta" in data:
            return ConstraintSpec(
                "label_bounds",
                alpha={k: _parse_fraction(v) for k, v in data.get("alpha", {}).items()},
                beta={k: _parse_fraction(v) for k, v in data.get("beta", {}).items()})
        return ConstraintSpec(
            "label_bounds",
            min_per_label={k: int(v) for k, v in data.get("min_per_label", {}).items()},
            max_per_label={k: int(v) for k, v in data.get("max_per_label", {}).items()})
    if kind == "outlier_label_quota":
        _reject_unknown(data, {"kind", "quota"}, "constraint")
        return ConstraintSpec("outlier_label_quota",
                              quota={k: int(v) for k, v in data["quota"].items()})
    raise ValueError(f"unknown constraint kind: {kind!r}")


def constraint_to_dict(spec: ConstraintSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": spec.kind}
    if spec.kind == "size_bounds":
        out["r"] = list(spec.r)
        out["l"] = list(spec.l)
    elif spec.kind == "capacitated":
        out["s"] = list(spec.s)
    elif spec.kind == "label_bounds":
        if spec.fractional:
            out["alpha"] = {k: str(v) for k, v in (spec.alpha or {}).items()}
            out["beta"] = {k: str(v) for k, v in (spec.beta or {}).items()}
        else:
            out["min_per_label"] = dict(spec.min_per_label or {})
            out["max_per_label"] = dict(spec.max_per_label or {})
    elif spec.kind == "outlier_label_quota":
        out["quota"] = dict(spec.quota)
    return out


def instance_to_dict(inst: ClusteringInstance) -> dict[str, Any]:
    space = inst.space
    if space.kind == "matrix":
        metric = {"kind": "matrix", "matrix": space.matrix.tolist()}
        points: list = list(inst.X)
        facilities: list = list(inst.F)
    elif space.kind == "euclidean":
        metric = {"kind": "euclidean", "dim": space.dim}
        points = [space.coords[x].tolist() for x in inst.X]
        facilities = [space.coords[f].tolist() for f in inst.F]
    else:
        metric = {"kind": "ulam", "perm_len": space.perm_len}
        points = [space.perms[x].tolist() for x in inst.X]
        facilities = [space.perms[f].tolist() for f in inst.F]
    out = {
        "metric": metric,
        "z": space.z,
        "points": points,
        "facilities": facilities,
        "k": inst.k,
        "m": inst.m,
        "constraint": constraint_to_dict(inst.constraint),
    }
    if inst.labels is not None:
        out["labels"] = list(inst.labels)
    return out


def load_instance(path: str) -> ClusteringInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def solution_to_dict(sol: Solution, *, chosen_Y=None, chosen_tau=None,
                     q=None, iteration_stats=None) -> dict[str, Any]:
    if chosen_tau is not None and not isinstance(chosen_tau, dict):
        chosen_tau = list(chosen_tau)  # labelled tuples arrive as {"t", "psi"}
    out: dict[str, Any] = {
        "cost": sol.cost,
        "centers": list(sol.centers),
        "clusters": [sorted(c) for c in sol.clusters],
        "outliers": sorted(sol.outliers),
        "chosen_Y": sorted(chosen_Y) if chosen_Y is not None else None,
        "chosen_tau": chosen_tau,
        "q": q,
    }
    if iteration_stats is not None:
        out["iteration_stats"] = iteration_stats
    return out


def solution_from_dict(data: Mapping[str, Any]) -> Solution:
    return Solution(
        outliers=frozenset(int(x) for x in data["outliers"]),
        clusters=tuple(frozenset(int(x) for x in c) for c in data["clusters"]),
        centers=tuple(int(f) for f in data["centers"]),
        cost=float(data["cost"]),
    )
