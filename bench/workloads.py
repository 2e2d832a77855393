"""Seeded instance recipes for the benchmark workloads.

The geometry follows the planted-outlier recipe of ``outlier_reduce.gen``
(inliers within radius 1 of sites spaced 30 apart on the first axis,
outliers 10 to 20 radii from a site), written out here so that an edit to
the generator cannot change what the benchmark measures. Every instance is
a pure function of (workload, seed, index), and so is its sampling seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SITE_SPACING = 30.0
RADIUS = 1.0
OUTLIER_SPREAD = 10.0
EPSILON = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    m: int
    z: int
    constraint: str            # unconstrained | capacitated | label_windows
    metric: str                # euclidean | matrix
    facilities: str            # shared (F = X) | sites (k + 2 near the sites)
    plugin: str                # exact | local-search
    warmup_n: int              # size of the one untimed warm-up instance
    loads_per_instance: int    # set-up samples taken per instance file


WORKLOADS = {w.name: w for w in (
    Workload("unconstrained-exact", n=30, k=2, m=2, z=2,
             constraint="unconstrained", metric="euclidean",
             facilities="shared", plugin="exact", warmup_n=10,
             loads_per_instance=9),
    Workload("capacitated-local-search", n=30, k=2, m=2, z=1,
             constraint="capacitated", metric="euclidean",
             facilities="shared", plugin="local-search", warmup_n=10,
             loads_per_instance=9),
    Workload("labelled-exact", n=20, k=2, m=2, z=1,
             constraint="label_windows", metric="matrix",
             facilities="shared", plugin="exact", warmup_n=10,
             loads_per_instance=9),
    Workload("wide-centers", n=2000, k=3, m=2, z=1,
             constraint="unconstrained", metric="euclidean",
             facilities="sites", plugin="exact", warmup_n=200,
             loads_per_instance=3),
)}

LABELS = ("L0", "L1")


def _rng(workload: Workload, seed: int, index: int) -> np.random.Generator:
    # index -1 is the warm-up instance; it is the same for every seed
    tag = zlib.crc32(workload.name.encode())
    return np.random.default_rng([tag, seed if index >= 0 else 0, index + 1])


def _planted_points(rng: np.random.Generator, n: int, k: int, m: int):
    sites = np.zeros((k, 2))
    sites[:, 0] = SITE_SPACING * np.arange(k)
    seen: set[tuple[float, float]] = set()
    points: list[list[float]] = []

    def add(p) -> None:
        # rounded for clean JSON; a rare collision is redrawn because
        # clients must be pairwise distinct
        key = (round(float(p[0]), 6), round(float(p[1]), 6))
        if key not in seen:
            seen.add(key)
            points.append(list(key))

    while len(points) < n - m:
        offset = rng.uniform(-1.0, 1.0, size=2)
        offset *= RADIUS / max(1.0, float(np.linalg.norm(offset)))
        add(sites[rng.integers(0, k)] + offset)
    while len(points) < n:
        direction = rng.normal(size=2)
        direction /= max(1e-9, float(np.linalg.norm(direction)))
        dist = OUTLIER_SPREAD * RADIUS * (1.0 + rng.random())
        add(sites[rng.integers(0, k)] + direction * dist)
    return sites, points


def _site_facilities(rng: np.random.Generator, sites: np.ndarray):
    fac = [sites[i] + rng.uniform(-0.5, 0.5, size=2) for i in range(len(sites))]
    fac += [sites[rng.integers(0, len(sites))] + rng.uniform(-1.0, 1.0, size=2)
            for _ in range(2)]
    return [[round(float(v), 6) for v in f] for f in fac]


def make_instance(workload: Workload, seed: int, index: int, *,
                  n: int | None = None) -> tuple[dict, int]:
    """Instance dict in the program's file format, plus its sampling seed."""
    rng = _rng(workload, seed, index)
    n = workload.n if n is None else n
    k, m = workload.k, workload.m
    sites, points = _planted_points(rng, n, k, m)
    facilities = (_site_facilities(rng, sites) if workload.facilities == "sites"
                  else [list(p) for p in points])
    data = {"z": workload.z, "k": k, "m": m}
    if workload.metric == "matrix":
        coords = np.array(points)
        diff = coords[:, None, :] - coords[None, :, :]
        dmat = np.sqrt((diff ** 2).sum(axis=2))
        data["metric"] = {"kind": "matrix",
                          "matrix": [[round(float(v), 9) for v in row]
                                     for row in dmat]}
        data["points"] = list(range(n))
        data["facilities"] = list(range(n))
    else:
        data["metric"] = {"kind": "euclidean", "dim": 2}
        data["points"] = points
        data["facilities"] = facilities
    survivors = n - m
    if workload.constraint == "unconstrained":
        data["constraint"] = {"kind": "unconstrained"}
    elif workload.constraint == "capacitated":
        # one unit of slack over an even split, as the generator does; an
        # uneven planted split makes the capacities bind
        base = -(-survivors // k) + 1
        data["constraint"] = {"kind": "capacitated",
                              "s": [int(base + rng.integers(0, 3))
                                    for _ in facilities]}
    else:
        # the generator's window: labels alternate and L0 may fill all but
        # one place of a cluster. It never binds on these sizes, so the
        # exact solver's lower-bound pruning works and solve times stay
        # even; a window that binds leaves nothing to prune and makes them
        # vary tenfold. Only an upper window: removing a client never breaks
        # feasibility, so "exactly m" and "at most m" outliers agree.
        data["labels"] = [LABELS[i % 2] for i in range(n)]
        data["constraint"] = {"kind": "label_bounds", "min_per_label": {},
                              "max_per_label": {LABELS[0]: survivors - 1}}
    return data, int(rng.integers(0, 2 ** 31))
