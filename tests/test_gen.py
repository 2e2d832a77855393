import numpy as np
import pytest

from outlier_reduce.gen import (GeneratorConfig, _move, _random_move,
                                generate_instance, generate_instance_dict)
from outlier_reduce.instance import instance_from_dict


def test_planted_outliers_are_far():
    cfg = GeneratorConfig(n=12, k=2, m=2, dim=2)
    inst = generate_instance(cfg, seed=7)
    inliers = inst.X[:-cfg.m]
    planted = inst.X[-cfg.m:]
    for x in planted:
        nearest = min(inst.space.distance(x, y) for y in inliers)
        # inliers live in radius-1 balls, outliers at 10x the radius or more
        assert nearest >= 10.0 - 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, k=2, m=2)  # n < k + m
    with pytest.raises(ValueError):
        GeneratorConfig(metric="hyperbolic")
    with pytest.raises(ValueError):
        generate_instance(GeneratorConfig(n=10, k=2, m=1, metric="ulam",
                                          perm_len=3), seed=0)


def test_same_seed_same_instance():
    cfg = GeneratorConfig(n=10, k=2, m=1, constraint="capacitated")
    assert generate_instance_dict(cfg, 5) == generate_instance_dict(cfg, 5)
    assert generate_instance_dict(cfg, 5) != generate_instance_dict(cfg, 6)


@pytest.mark.parametrize("constraint", ["unconstrained", "capacitated",
                                        "size_bounds", "label_bounds",
                                        "outlier_label_quota"])
@pytest.mark.parametrize("metric", ["euclidean", "matrix", "ulam"])
def test_every_combination_loads(constraint, metric):
    cfg = GeneratorConfig(n=9, k=2, m=2, metric=metric, constraint=constraint)
    inst = generate_instance(cfg, seed=3)
    assert inst.n == 9
    assert not inst.notes


def test_constraints_keep_slack_for_full_budget():
    # removing any m points must leave the constraint satisfiable, so that
    # optima over growing budgets stay comparable
    for seed in range(10):
        cfg = GeneratorConfig(n=8, k=2, m=2, constraint="size_bounds")
        inst = generate_instance(cfg, seed=seed)
        assert sum(inst.constraint.r) <= inst.n - inst.m
        cfg = GeneratorConfig(n=8, k=2, m=2, constraint="capacitated")
        inst = generate_instance(cfg, seed=seed)
        survivors = inst.n - inst.m
        caps = sorted(inst.constraint.s, reverse=True)
        assert sum(caps[:inst.k]) >= survivors


def test_centers_facility_mode_excludes_outliers():
    cfg = GeneratorConfig(n=10, k=2, m=2, facilities="centers")
    inst = generate_instance(cfg, seed=1)
    assert len(inst.F) == cfg.k + 2
    planted = set(inst.X[-cfg.m:])
    assert planted.isdisjoint(inst.F)


def test_matrix_instances_reference_rows():
    cfg = GeneratorConfig(n=8, k=2, m=1, metric="matrix")
    data = generate_instance_dict(cfg, seed=2)
    size = len(data["metric"]["matrix"])
    assert all(0 <= i < size for i in data["points"] + data["facilities"])
    inst = instance_from_dict(data)
    inst.space.validate_triangle(samples=300, seed=0)


def test_degenerate_singleton_ulam():
    inst = generate_instance(GeneratorConfig(n=1, k=1, m=0, metric="ulam",
                                             perm_len=1), seed=0)
    assert inst.n == 1


def test_labels_only_when_needed():
    plain = generate_instance_dict(GeneratorConfig(n=8, k=2, m=1), seed=0)
    assert "labels" not in plain
    labelled = generate_instance_dict(
        GeneratorConfig(n=8, k=2, m=1, constraint="label_bounds"), seed=0)
    assert len(labelled["labels"]) == 8


def test_random_move_reaches_every_one_move_neighbour():
    # a length-4 permutation has (4 - 1)^2 + 1 = 10 permutations within one
    # move, itself included; the last position is a target like any other
    site = (1, 2, 3, 4)
    neighbourhood = {_move(site, i, j) for i in range(4) for j in range(4)}
    assert len(neighbourhood) == 10
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(2000):
        seen.add(_random_move(site, rng))
        if seen == neighbourhood:
            break
    assert seen == neighbourhood
