"""The benchmark's reference optimum against the brute-force oracle.

The two are computed apart: ``reference.py`` solves each k-subset of F by
its own formulation from the raw instance dict, while
``outlier_reduce.oracle.exact_outlier_opt`` enumerates every outlier set
and runs the program's exact solver. Run with
``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from outlier_reduce import exact_outlier_opt, instance_from_dict  # noqa: E402

from reference import RawInstance, check_solution, reference_optimum  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402


def desk_instances():
    """Instances of n <= 12 of every workload's shape, both z values, and
    tightened capacities and label windows so that the constraints bind."""
    cases = []
    for name, shape in WORKLOADS.items():
        for z in (1, 2):
            for seed, n in ((1, 9), (2, 11), (3, 12)):
                workload = dataclasses.replace(shape, z=z)
                data, _ = make_instance(workload, seed, 0, n=n)
                cases.append((f"{name}-z{z}-n{n}", data))
                kind = data["constraint"]["kind"]
                if kind == "capacitated":
                    tight = dict(data, constraint={
                        "kind": "capacitated",
                        "s": [2 + i % 4 for i in range(n)]})
                    cases.append((f"{name}-z{z}-n{n}-tight", tight))
                elif kind == "label_bounds":
                    tight = dict(data, constraint={
                        "kind": "label_bounds",
                        "min_per_label": {"L0": 1, "L1": 1},
                        "max_per_label": {"L0": 3, "L1": n // 2}})
                    cases.append((f"{name}-z{z}-n{n}-tight", tight))
    return cases


CASES = desk_instances()


@pytest.mark.parametrize("name,data", CASES, ids=[name for name, _ in CASES])
def test_reference_matches_oracle(name, data):
    opt, solution = exact_outlier_opt(instance_from_dict(data))
    raw = RawInstance(data)
    assert reference_optimum(raw) == pytest.approx(opt, rel=1e-9, abs=1e-9)
    problems, recomputed = check_solution(
        raw, solution.cost, solution.centers, solution.clusters,
        solution.outliers)
    assert problems == []
    assert recomputed == pytest.approx(opt, rel=1e-9)


def test_check_solution_rejects_broken_solutions():
    # ten clients, two outliers and capacity 4: both clusters are full
    data, _ = make_instance(WORKLOADS["capacitated-local-search"], 4, 0, n=10)
    data["constraint"]["s"] = [4] * 10
    _, sol = exact_outlier_opt(instance_from_dict(data))
    raw = RawInstance(data)
    centers, clusters = list(sol.centers), [set(c) for c in sol.clusters]
    outliers = set(sol.outliers)

    problems, _ = check_solution(raw, sol.cost * 1.01, centers, clusters,
                                 outliers)
    assert any("cost" in p for p in problems)

    moved = outliers.pop()
    problems, _ = check_solution(raw, sol.cost, centers, clusters, outliers)
    assert any("partition" in p for p in problems)

    clusters[0].add(moved)
    problems, _ = check_solution(raw, sol.cost, centers, clusters, outliers)
    assert any("capacity" in p for p in problems)

    problems, _ = check_solution(raw, sol.cost, [centers[0]] * 2, clusters,
                                 outliers | {moved})
    assert any("distinct" in p for p in problems)
