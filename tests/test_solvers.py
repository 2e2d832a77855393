import itertools

import numpy as np
import pytest

from outlier_reduce import solvers
from outlier_reduce.instance import check, validate_solution, Solution
from outlier_reduce.solvers import (IMPROVE_ATOL, ExactBudgetExceeded,
                                    OutlierFreeProblem, SolverResult,
                                    _assign_with_matrix, assign_given_centers,
                                    solve_exact, solve_local_search)
from helpers import brute_assignment, fref_of, line_instance, ref_of


def problem_of(inst, xs=None):
    xp = tuple(inst.X) if xs is None else tuple(ref_of(inst, v) for v in xs)
    return OutlierFreeProblem(inst, xp)


def test_assign_unconstrained_nearest():
    inst = line_instance([0, 1, 9, 10], k=2)
    prob = problem_of(inst)
    centers = (fref_of(inst, 0), fref_of(inst, 10))
    clusters, cost = assign_given_centers(prob, centers)
    assert cost == pytest.approx(2.0)
    assert clusters[0] == {ref_of(inst, 0), ref_of(inst, 1)}
    assert clusters[1] == {ref_of(inst, 9), ref_of(inst, 10)}


def test_assign_capacitated_example():
    inst = line_instance([0, 1, 2], fs=[0, 2], k=2,
                         constraint={"kind": "capacitated", "s": [1, 2]})
    prob = problem_of(inst)
    centers = (fref_of(inst, 0), fref_of(inst, 2))
    clusters, cost = assign_given_centers(prob, centers)
    assert cost == pytest.approx(1.0)
    assert clusters[0] == {ref_of(inst, 0)}
    assert clusters[1] == {ref_of(inst, 1), ref_of(inst, 2)}


def test_assign_size_bounds_example():
    inst = line_instance([0, 1, 10], fs=[0, 10], k=2,
                         constraint={"kind": "size_bounds", "r": [2, 1],
                                     "l": [3, 3]})
    prob = problem_of(inst)
    centers = (fref_of(inst, 0), fref_of(inst, 10))
    clusters, cost = assign_given_centers(prob, centers)
    assert cost == pytest.approx(1.0)
    assert clusters[0] == {ref_of(inst, 0), ref_of(inst, 1)}
    assert clusters[1] == {ref_of(inst, 10)}


def test_assign_infeasible_capacities():
    inst = line_instance([0, 1, 2], fs=[0, 2], k=2,
                         constraint={"kind": "capacitated", "s": [1, 1]})
    prob = problem_of(inst)
    assert assign_given_centers(prob, tuple(inst.F)) is None


def test_assign_label_bounds_flow():
    inst = line_instance([0, 1, 10, 11], k=2, labels=["a", "b", "a", "b"],
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"a": 1, "b": 1},
                                     "max_per_label": {}})
    prob = problem_of(inst)
    centers = (fref_of(inst, 0), fref_of(inst, 10))
    res = assign_given_centers(prob, centers)
    assert res is not None
    clusters, cost = res
    expected = brute_assignment(inst, list(inst.X), centers)
    assert cost == pytest.approx(expected, abs=1e-9)


def test_assign_fractional_label_bounds():
    inst = line_instance([0, 1, 2, 10, 11, 12], k=2,
                         labels=["a", "b", "b", "a", "b", "b"],
                         constraint={"kind": "label_bounds",
                                     "alpha": {"a": "1/3"},
                                     "beta": {"a": "1/2"}})
    prob = problem_of(inst)
    centers = (fref_of(inst, 0), fref_of(inst, 11))
    res = assign_given_centers(prob, centers)
    assert res is not None
    expected = brute_assignment(inst, list(inst.X), centers)
    assert res[1] == pytest.approx(expected, abs=1e-9)


def test_solve_exact_single_facility():
    inst = line_instance([0, 1, 2], fs=[1], k=1)
    res = solve_exact(problem_of(inst))
    assert res.centers == (fref_of(inst, 1),)
    assert res.cost == pytest.approx(2.0)


def test_solve_exact_two_pairs():
    inst = line_instance([0, 1, 10, 11], k=2)
    res = solve_exact(problem_of(inst))
    assert res.cost == pytest.approx(2.0)


def test_solve_exact_capacitated_free_centers():
    inst = line_instance([0, 1, 2], fs=[0, 2], k=2,
                         constraint={"kind": "capacitated", "s": [1, 2]})
    res = solve_exact(problem_of(inst))
    assert res.cost == pytest.approx(1.0)


def test_solve_exact_budget_guard():
    inst = line_instance(list(range(10)), k=3)
    with pytest.raises(ExactBudgetExceeded):
        solve_exact(problem_of(inst), work_budget=10)


def test_solve_exact_globally_infeasible():
    inst = line_instance([0, 1, 2], fs=[0, 2], k=2,
                         constraint={"kind": "capacitated", "s": [1, 1]})
    assert solve_exact(problem_of(inst)) is None


def test_exact_matches_brute_force_every_kind():
    rng = np.random.default_rng(5)
    kinds = [
        {"kind": "unconstrained"},
        {"kind": "capacitated", "s": None},
        {"kind": "size_bounds", "r": [1, 1], "l": [6, 6]},
        {"kind": "size_bounds", "r": [2, 1], "l": [6, 5]},  # cluster-indexed
        {"kind": "label_bounds", "min_per_label": {"a": 1},
         "max_per_label": {}},
    ]
    for trial in range(12):
        xs = sorted(set(np.round(rng.uniform(0, 50, size=6), 3).tolist()))
        for spec in kinds:
            spec = dict(spec)
            labels = None
            if spec["kind"] == "capacitated":
                spec["s"] = [int(rng.integers(2, 5)) for _ in xs]
            if spec["kind"] == "label_bounds":
                labels = [("a" if i % 2 == 0 else "b")
                          for i in range(len(xs))]
            inst = line_instance(xs, k=2, constraint=spec, labels=labels)
            res = solve_exact(problem_of(inst))
            ordered = inst.constraint.cluster_indexed
            import itertools
            it = (itertools.permutations(inst.F, 2) if ordered
                  else itertools.combinations(inst.F, 2))
            expect = None
            for centers in it:
                c = brute_assignment(inst, list(inst.X), centers)
                if c is not None and (expect is None or c < expect):
                    expect = c
            if expect is None:
                assert res is None
            else:
                assert res.cost == pytest.approx(expect, abs=1e-9)


def test_exact_solution_validates():
    inst = line_instance([0, 1, 5, 6], k=2, m=0,
                         constraint={"kind": "size_bounds", "r": [1, 1],
                                     "l": [4, 4]})
    res = solve_exact(problem_of(inst))
    sol = Solution(outliers=frozenset(), clusters=res.clusters,
                   centers=res.centers, cost=res.cost)
    report = validate_solution(inst, sol)
    assert report.feasible, report.violations


def test_exact_symmetric_under_uniform_bound_permutation():
    xs = [0, 1, 2, 7, 8]
    a = line_instance(xs, k=2, constraint={"kind": "size_bounds",
                                           "r": [1, 2], "l": [3, 4]})
    b = line_instance(xs, k=2, constraint={"kind": "size_bounds",
                                           "r": [2, 1], "l": [4, 3]})
    ra = solve_exact(problem_of(a))
    rb = solve_exact(problem_of(b))
    assert ra.cost == pytest.approx(rb.cost, abs=1e-9)


def test_local_search_never_beats_exact_and_is_deterministic():
    rng = np.random.default_rng(9)
    for trial in range(10):
        xs = sorted(set(np.round(rng.uniform(0, 30, size=7), 3).tolist()))
        inst = line_instance(xs, k=2)
        prob = problem_of(inst)
        exact = solve_exact(prob)
        ls1 = solve_local_search(prob, rng_seed=trial)
        ls2 = solve_local_search(prob, rng_seed=trial)
        assert ls1 == ls2
        assert ls1.cost >= exact.cost - 1e-9


def test_exact_output_is_local_search_fixed_point():
    inst = line_instance([0, 1, 2, 20, 21, 22], k=2)
    prob = problem_of(inst)
    exact = solve_exact(prob)
    # no single swap from the optimal centers can improve
    for i in range(2):
        for f in inst.F:
            if f in exact.centers:
                continue
            trial = list(exact.centers)
            trial[i] = f
            res = assign_given_centers(prob, tuple(trial))
            if res is not None:
                assert res[1] >= exact.cost - 1e-9


def test_empty_residual_set():
    inst = line_instance([0, 1], k=1, m=2)
    prob = OutlierFreeProblem(inst, ())
    res = solve_exact(prob)
    assert res is not None and res.cost == 0.0
    assert all(len(c) == 0 for c in res.clusters)


def reference_solve_exact(problem):
    """Scalar reference for ``solve_exact``: one slice, min and sum per
    center tuple, in enumeration order."""
    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf:
        return None
    ordered = inst.constraint.cluster_indexed
    W_all = problem.weight_matrix()
    it = (itertools.permutations(range(nf), k) if ordered
          else itertools.combinations(range(nf), k))
    best_cost = best_cols = best_assignment = None
    for cols in it:
        W = W_all[:, cols]
        lower = float(W.min(axis=1).sum()) if W.size else 0.0
        if best_cost is not None and lower >= best_cost - IMPROVE_ATOL:
            continue
        centers = tuple(inst.F[j] for j in cols)
        res = _assign_with_matrix(problem, centers, W)
        if res is None:
            continue
        clusters, cost = res
        if best_cost is None or cost < best_cost - IMPROVE_ATOL:
            best_cost, best_cols, best_assignment = cost, centers, clusters
    if best_cost is None:
        return None
    return SolverResult(clusters=best_assignment, centers=best_cols,
                        cost=best_cost)


def assert_same_result(got, want):
    if want is None:
        assert got is None
        return
    assert got.cost.hex() == want.cost.hex()
    assert got.centers == want.centers
    assert got.clusters == want.clusters


KIND_SPECS = [
    ({"kind": "unconstrained"}, False),
    ({"kind": "capacitated", "s": None}, False),
    ({"kind": "size_bounds", "r": [1, 1], "l": [5, 5]}, False),
    ({"kind": "size_bounds", "r": [2, 0], "l": [6, 4]}, False),  # ordered
    ({"kind": "label_bounds", "min_per_label": {"a": 1},
      "max_per_label": {"b": 3}}, True),
    ({"kind": "label_bounds", "alpha": {"a": "1/4"}, "beta": {"a": "3/4"}},
     True),
    ({"kind": "outlier_label_quota", "quota": {"a": 1}}, True),
]


@pytest.mark.parametrize("block_elements", [1, 20, None])
@pytest.mark.parametrize("spec,labelled", KIND_SPECS)
def test_exact_matches_scalar_reference(spec, labelled, block_elements,
                                        monkeypatch):
    if block_elements is not None:  # None keeps the default: one block
        monkeypatch.setattr(solvers, "BOUND_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(11)
    for trial in range(8):
        # integer coordinates give exact ties between tuples
        xs = sorted(set(rng.integers(0, 12, size=7).tolist()))
        spec = dict(spec)
        if spec["kind"] == "capacitated":
            spec["s"] = [int(rng.integers(1, 5)) for _ in xs]
        labels = ([("a", "b")[int(rng.integers(0, 2))] for _ in xs]
                  if labelled else None)
        inst = line_instance(xs, k=2, m=2, z=1 + trial % 2, constraint=spec,
                             labels=labels)
        for drop in (0, 1, 2):
            keep = sorted(rng.choice(inst.n, size=inst.n - drop,
                                     replace=False))
            prob = OutlierFreeProblem(inst, tuple(inst.X[i] for i in keep))
            assert_same_result(solve_exact(prob), reference_solve_exact(prob))
        empty = OutlierFreeProblem(inst, ())
        assert_same_result(solve_exact(empty), reference_solve_exact(empty))


@pytest.mark.parametrize("gap,winner", [(1e-10, 1), (1e-8, 2)])
def test_exact_near_tie_keeps_first_tuple(gap, winner):
    # the second facility is cheaper by ``gap``: within IMPROVE_ATOL the
    # earlier tuple stays the incumbent
    for kind in ({"kind": "unconstrained"},
                 {"kind": "capacitated", "s": [2, 2]}):
        inst = line_instance([0], fs=[1, 1 - gap], k=1, constraint=kind)
        prob = problem_of(inst)
        res = solve_exact(prob)
        assert_same_result(res, reference_solve_exact(prob))
        assert res.centers == (fref_of(inst, 1 if winner == 1 else 1 - gap),)


def test_exact_near_ties_random_match_reference():
    rng = np.random.default_rng(3)
    for trial in range(30):
        xs = rng.integers(0, 6, size=6).astype(float)
        xs[rng.integers(0, 6)] += rng.choice([-1, 1]) * 1e-10
        inst = line_instance(sorted(set(xs.tolist())), k=2)
        prob = problem_of(inst)
        assert_same_result(solve_exact(prob), reference_solve_exact(prob))


def test_center_tuple_table():
    table = solvers._center_tuples(5, 2, False)
    assert table.tolist() == [list(t) for t in itertools.combinations(range(5), 2)]
    assert not table.flags.writeable and table.dtype == np.intp
    assert (solvers._center_tuples(4, 3, True).tolist()
            == [list(t) for t in itertools.permutations(range(4), 3)])
    assert solvers._center_tuples(5, 2, False) is table


def flow_label_windows(problem, centers, W):
    """Integral label windows solved as one flow with free cluster sizes."""
    spec = problem.inst.constraint
    n, k = problem.n, len(centers)
    windows = {(i, lab): ((spec.min_per_label or {}).get(lab, 0),
                          min((spec.max_per_label or {}).get(lab, n), n))
               for i in range(k) for lab in problem.inst.label_names}
    return solvers._label_window_flow(problem, centers, W, windows,
                                      {i: (0, n) for i in range(k)})


def test_integral_label_windows_match_flow():
    rng = np.random.default_rng(21)
    seen = {"feasible": 0, "infeasible": 0, "binding": 0, "short": 0,
            "absent": 0}
    for trial in range(150):
        k = int(rng.integers(1, 4))
        xs = sorted(set(rng.uniform(0, 20, size=12).round(6).tolist()))
        labels = [("a", "b", "c")[int(rng.integers(0, 3))] for _ in xs]
        labels[:3] = rng.permutation(["a", "b", "c"]).tolist()  # all occur
        mins = {lab: int(rng.integers(0, 3 if lab == "c" else 2))
                for lab in "abc"}
        maxs = {lab: mins[lab] + int(rng.integers(0, 5)) for lab in "ab"}
        inst = line_instance(xs, k=k, m=3, z=1 + trial % 2, labels=labels,
                             constraint={"kind": "label_bounds",
                                         "min_per_label": mins,
                                         "max_per_label": maxs})
        keep = [x for x in inst.X if rng.random() > 0.2]
        if trial % 5 == 0:  # drop every point of label "c" from X'
            keep = [x for x in keep if inst.label_of[x] != "c"]
        prob = OutlierFreeProblem(inst, tuple(keep))
        centers = tuple(inst.F[i] for i in sorted(
            rng.choice(len(inst.F), size=k, replace=False)))
        W = prob.weight_matrix()[:, [inst.fpos[f] for f in centers]]
        got = _assign_with_matrix(prob, centers, W)
        want = flow_label_windows(prob, centers, W)
        assert (got is None) == (want is None)
        counts = {lab: sum(inst.label_of[x] == lab for x in keep)
                  for lab in "abc"}
        seen["absent"] += counts["c"] == 0
        if any(counts[lab] < k * mins[lab] for lab in "abc"):
            seen["short"] += 1
            assert want is None
        if want is None:
            seen["infeasible"] += 1
            continue
        seen["feasible"] += 1
        seen["binding"] += any(0 < counts[lab] == k * mins[lab]
                               for lab in "abc")
        assert abs(got[1] - want[1]) <= 1e-9
        assert got[1] == pytest.approx(sum(
            inst.powered_xf(x, centers[i])
            for i, c in enumerate(got[0]) for x in c), abs=1e-9)
        assert check(inst, got[0], centers)
    assert min(seen.values()) >= 5, seen


def test_residual_rows_are_positions():
    inst = line_instance([5, 0, 9, 1, 4], fs=[0, 9], k=2)
    keep = (inst.X[4], inst.X[0], inst.X[3])
    derived = OutlierFreeProblem(inst, keep)
    assert derived.rows.tolist() == [4, 0, 3]
    given = OutlierFreeProblem(inst, keep, np.array([4, 0, 3]))
    assert given == derived  # rows take no part in equality
    assert (given.weight_matrix().tobytes()
            == np.array([[inst.powered_xf(x, f) for f in inst.F]
                         for x in keep]).tobytes())
    assert OutlierFreeProblem(inst, ()).weight_matrix().shape == (0, 2)


def test_clusters_from_assignment_match_loop():
    rng = np.random.default_rng(23)
    inst = line_instance(rng.permutation(30).tolist(), fs=[0, 10, 20], k=3)
    for _ in range(20):
        keep = tuple(x for x in inst.X if rng.random() > 0.3)
        prob = OutlierFreeProblem(inst, keep)
        assign = rng.integers(0, 3, size=len(keep)).tolist()
        groups = [set() for _ in range(3)]
        for x, i in zip(keep, assign):
            groups[i].add(x)
        assert solvers._clusters_from_assignment(prob, assign, 3) == tuple(
            frozenset(g) for g in groups)


def test_absent_label_minimum_is_infeasible():
    # check() holds each cluster to a minimum of one "b" client, and no
    # client carries label b
    inst = line_instance([0, 1, 5, 6], fs=[0, 5], k=2, m=1,
                         labels=["a"] * 4,
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"b": 1}})
    centers = tuple(inst.F)
    assert not check(inst, [{inst.X[0]}, set(inst.X[1:])], centers)
    assert assign_given_centers(problem_of(inst), centers) is None
    assert solve_exact(problem_of(inst)) is None
    assert solve_local_search(problem_of(inst)) is None
    zero = line_instance([0, 1, 5, 6], fs=[0, 5], k=2, m=1, labels=["a"] * 4,
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"b": 0}})
    assert solve_exact(problem_of(zero)) is not None
