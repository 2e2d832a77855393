import itertools

import numpy as np
import pytest

from outlier_reduce.metric import ulam_distance
from outlier_reduce.oracle import (OracleBudget, OracleBudgetExceeded,
                                   exact_outlier_opt, ulam_bfs,
                                   ulam_bfs_distances)
from outlier_reduce.solvers import solve_exact
from helpers import brute_outlier_opt, line_instance, ref_of, residual_problem


def test_m0_equals_solve_exact():
    inst = line_instance([0, 1, 5, 9], k=2, m=0)
    opt, sol = exact_outlier_opt(inst)
    exact = solve_exact(residual_problem(inst, inst.X))
    assert opt == pytest.approx(exact.cost, abs=1e-12)


def test_three_point_case():
    inst = line_instance([0, 1, 10], k=1, m=1)
    opt, sol = exact_outlier_opt(inst)
    assert opt == pytest.approx(1.0)
    assert sol.outliers == {ref_of(inst, 10)}


def test_far_point_absorbed_by_extra_budget():
    base = line_instance([0, 1, 10], k=1, m=1)
    opt_base, _ = exact_outlier_opt(base)
    bigger = line_instance([0, 1, 10, 1e6], k=1, m=2)
    opt_big, sol = exact_outlier_opt(bigger)
    assert opt_big == pytest.approx(opt_base)
    assert ref_of(bigger, 1e6) in sol.outliers


def test_monotone_in_budget():
    xs = [0, 1, 2, 8, 9, 30]
    prev = None
    for m in (0, 1, 2):
        opt, _ = exact_outlier_opt(line_instance(xs, k=2, m=m))
        if prev is not None:
            assert opt <= prev + 1e-12
        prev = opt


def test_unconstrained_km_clustering_lower_bounds_outlier_opt():
    # with F = X, placing a center on every optimal outlier shows the
    # (k+m)-center unconstrained optimum never exceeds the outlier optimum
    import itertools

    from outlier_reduce.baseline import anchor_cost_of

    rng = np.random.default_rng(21)
    for trial in range(10):
        xs = sorted(set(np.round(rng.uniform(0, 60, size=7), 3).tolist()))
        inst = line_instance(xs, k=2, m=1)
        opt, _ = exact_outlier_opt(inst)
        km_opt = min(anchor_cost_of(inst, c)
                     for c in itertools.combinations(inst.F, 3))
        assert km_opt <= opt + 1e-9


def test_matches_fully_independent_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(8):
        xs = sorted(set(np.round(rng.uniform(0, 40, size=6), 3).tolist()))
        inst = line_instance(xs, k=2, m=1)
        opt, _ = exact_outlier_opt(inst)
        assert opt == pytest.approx(brute_outlier_opt(inst), abs=1e-9)


def test_quota_enumeration():
    inst = line_instance([0, 1, 2, 50], k=1, m=1,
                         labels=["a", "a", "a", "b"],
                         constraint={"kind": "outlier_label_quota",
                                     "quota": {"b": 1}})
    opt, sol = exact_outlier_opt(inst)
    assert sol.outliers == {ref_of(inst, 50)}
    forced = line_instance([0, 1, 2, 50], k=1, m=1,
                           labels=["b", "a", "a", "a"],
                           constraint={"kind": "outlier_label_quota",
                                       "quota": {"b": 1}})
    opt2, sol2 = exact_outlier_opt(forced)
    # the quota forces the cheap point out and keeps the far one in
    assert sol2.outliers == {ref_of(forced, 0)}
    assert opt2 > opt


def test_budget_guard():
    inst = line_instance(list(range(13)), k=1, m=0)
    with pytest.raises(OracleBudgetExceeded):
        exact_outlier_opt(inst)
    exact_outlier_opt(inst, OracleBudget(max_n=13, max_f=13))


def test_globally_infeasible():
    inst = line_instance([0, 1, 2], fs=[0], k=1, m=0,
                         constraint={"kind": "capacitated", "s": [2]})
    with pytest.raises(ValueError, match="infeasible"):
        exact_outlier_opt(inst)


def test_ulam_bfs_examples():
    assert ulam_bfs((1, 2, 3), (1, 2, 3)) == 0
    assert ulam_bfs((1, 2, 3), (3, 1, 2)) == 1
    assert ulam_bfs((1, 2, 3), (3, 2, 1)) == 2


def test_ulam_bfs_guards():
    with pytest.raises(ValueError):
        ulam_bfs((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        ulam_bfs(tuple(range(1, 8)), tuple(range(1, 8)))


def test_ulam_bfs_matches_metric_len4():
    perms = list(itertools.permutations(range(1, 5)))
    for p in perms:
        table = ulam_bfs_distances(p)
        for q in perms:
            assert table[q] == ulam_distance(p, q)
