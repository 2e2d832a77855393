"""Benchmark instance generator with planted outliers.

Inliers are drawn around well-separated cluster sites; the m planted
outliers sit at least ten times the cluster radius away from every site
(for the Ulam metric, whose diameter is perm_len - 1, they are placed at
the largest reachable distance instead). Constraints are generated with
enough slack that removing up to m points always leaves a feasible
clustering, so optimum chains over growing budgets stay comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import ClusteringInstance, instance_from_dict

__all__ = ["GeneratorConfig", "generate_instance_dict", "generate_instance"]

CLUSTER_RADIUS = 1.0
SITE_SPACING = 30.0
OUTLIER_SPREAD = 10.0


@dataclass
class GeneratorConfig:
    n: int = 12
    k: int = 2
    m: int = 2
    z: int = 1
    metric: str = "euclidean"          # euclidean | matrix | ulam
    dim: int = 2
    perm_len: int = 5
    constraint: str = "unconstrained"  # unconstrained | capacitated |
    #                                    size_bounds | label_bounds |
    #                                    outlier_label_quota
    facilities: str = "shared"         # shared (F = X) | centers
    num_labels: int = 2
    nonuniform: bool = False           # size_bounds: distinct per-cluster bounds

    def __post_init__(self):
        if self.n < self.k + self.m:
            raise ValueError("need n >= k + m")
        if self.metric not in ("euclidean", "matrix", "ulam"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.constraint not in ("unconstrained", "capacitated",
                                   "size_bounds", "label_bounds",
                                   "outlier_label_quota"):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.facilities not in ("shared", "centers"):
            raise ValueError(f"unknown facilities mode {self.facilities!r}")


def _euclidean_points(cfg: GeneratorConfig, rng: np.random.Generator):
    sites = np.zeros((cfg.k, cfg.dim))
    sites[:, 0] = SITE_SPACING * np.arange(cfg.k)
    seen: set[tuple] = set()

    def rounded(p) -> list[float]:
        # coordinates are rounded for clean JSON; retry the rare collision
        # because clients must be pairwise distinct
        return [round(float(v), 6) for v in p]

    def fresh(draw) -> list[float]:
        while True:
            p = rounded(draw())
            if tuple(p) not in seen:
                seen.add(tuple(p))
                return p

    def inlier():
        site = sites[rng.integers(0, cfg.k)]
        offset = rng.uniform(-1.0, 1.0, size=cfg.dim)
        offset *= CLUSTER_RADIUS / max(1.0, float(np.linalg.norm(offset)))
        return site + offset

    def outlier():
        site = sites[rng.integers(0, cfg.k)]
        direction = np.zeros(cfg.dim)
        direction[-1] = 1.0
        if cfg.dim > 1:
            direction = rng.normal(size=cfg.dim)
            direction /= max(1e-9, float(np.linalg.norm(direction)))
        dist = OUTLIER_SPREAD * CLUSTER_RADIUS * (1.0 + rng.random())
        return site + direction * dist

    points = [fresh(inlier) for _ in range(cfg.n - cfg.m)]
    points += [fresh(outlier) for _ in range(cfg.m)]
    if cfg.facilities == "shared":
        fac = [list(p) for p in points]
    else:
        seen.clear()
        fac = [fresh(lambda i=i: sites[i] + rng.uniform(-0.5, 0.5,
                                                        size=cfg.dim))
               for i in range(cfg.k)]
        fac += [fresh(lambda: sites[rng.integers(0, cfg.k)]
                      + rng.uniform(-1.0, 1.0, size=cfg.dim))
                for _ in range(2)]
    return points, fac


def _move(perm: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    rest = perm[:i] + perm[i + 1:]
    return rest[:j] + (perm[i],) + rest[j:]


def _random_move(perm: tuple[int, ...], rng: np.random.Generator):
    n = len(perm)
    if n < 2:
        return perm
    i = int(rng.integers(0, n))
    return _move(perm, i, int(rng.integers(0, n - 1)))


def _ulam_points(cfg: GeneratorConfig, rng: np.random.Generator):
    if math.factorial(cfg.perm_len) < cfg.n:
        raise ValueError(
            f"cannot draw {cfg.n} distinct permutations of length "
            f"{cfg.perm_len}")
    base = tuple(range(1, cfg.perm_len + 1))
    sites = [base]
    while len(sites) < cfg.k:
        cand = tuple(int(v) for v in rng.permutation(cfg.perm_len) + 1)
        if cand not in sites:
            sites.append(cand)
    # the inlier loop below draws from these and would never end on fewer
    reachable = set(sites) | {_move(s, i, j) for s in sites
                              for i in range(cfg.perm_len)
                              for j in range(cfg.perm_len - 1)}
    if len(reachable) < cfg.n - cfg.m:
        raise ValueError(f"the sites' one-move neighbourhoods hold "
                         f"{len(reachable)} permutations, fewer than n - m = "
                         f"{cfg.n - cfg.m}")
    points: list[tuple[int, ...]] = []
    seen = set()
    while len(points) < cfg.n - cfg.m:
        p = _random_move(sites[int(rng.integers(0, cfg.k))], rng)
        if p not in seen:
            seen.add(p)
            points.append(p)
    # the Ulam diameter is perm_len - 1, so "far" means a reversed-ish
    # permutation rather than a 10x radius
    while len(points) < cfg.n:
        p = tuple(int(v) for v in rng.permutation(cfg.perm_len) + 1)
        far = tuple(reversed(sorted(p)))
        cand = far if far not in seen else p
        if cand not in seen:
            seen.add(cand)
            points.append(cand)
    fac = list(points) if cfg.facilities == "shared" else list(sites)
    return [list(p) for p in points], [list(f) for f in fac]


def _constraint_dict(cfg: GeneratorConfig, n_facilities: int,
                     rng: np.random.Generator):
    survivors = cfg.n - cfg.m
    if cfg.constraint == "unconstrained":
        return {"kind": "unconstrained"}, False
    if cfg.constraint == "capacitated":
        base = -(-survivors // cfg.k) + 1  # ceil with one unit of slack
        caps = [int(base + rng.integers(0, 3)) for _ in range(n_facilities)]
        return {"kind": "capacitated", "s": caps}, False
    if cfg.constraint == "size_bounds":
        if cfg.nonuniform and cfg.k >= 2:
            r = [2] + [1] * (cfg.k - 1)
        else:
            r = [1] * cfg.k
        if sum(r) > survivors:
            r = [0] * cfg.k
        return {"kind": "size_bounds", "r": r, "l": [cfg.n] * cfg.k}, False
    if cfg.constraint == "label_bounds":
        return ({"kind": "label_bounds", "min_per_label": {},
                 "max_per_label": {"L0": max(1, survivors - 1)}}, True)
    if cfg.constraint == "outlier_label_quota":
        return {"kind": "outlier_label_quota",
                "quota": {"L0": cfg.m}}, True
    raise AssertionError(cfg.constraint)


def generate_instance_dict(cfg: GeneratorConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if cfg.metric == "ulam":
        points, fac = _ulam_points(cfg, rng)
        metric = {"kind": "ulam", "perm_len": cfg.perm_len}
    else:
        points, fac = _euclidean_points(cfg, rng)
        metric = {"kind": "euclidean", "dim": cfg.dim}
        if cfg.metric == "matrix":
            coords = np.array(points + fac, dtype=float)
            diff = coords[:, None, :] - coords[None, :, :]
            dmat = np.sqrt((diff ** 2).sum(axis=2))
            metric = {"kind": "matrix",
                      "matrix": [[round(float(v), 9) for v in row]
                                 for row in dmat]}
            points = list(range(len(points)))
            fac = list(range(len(points), len(points) + len(fac)))
    constraint, needs_labels = _constraint_dict(cfg, len(fac), rng)
    out = {
        "metric": metric,
        "z": cfg.z,
        "points": points,
        "facilities": fac,
        "k": cfg.k,
        "m": cfg.m,
        "constraint": constraint,
    }
    if needs_labels:
        out["labels"] = [f"L{i % cfg.num_labels}" for i in range(cfg.n)]
    return out


def generate_instance(cfg: GeneratorConfig, seed: int) -> ClusteringInstance:
    return instance_from_dict(generate_instance_dict(cfg, seed))
