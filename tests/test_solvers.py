import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outlier_reduce import solvers
from outlier_reduce.instance import (ClusteringInstance, ConstraintSpec,
                                     check, instance_from_dict,
                                     instance_to_dict, validate_solution,
                                     Solution)
from outlier_reduce.solvers import (IMPROVE_ATOL, ExactBudgetExceeded,
                                    OutlierFreeProblem, assign_given_centers,
                                    solve_exact, solve_local_search)
from helpers import (ReferenceResult, brute_assignment, fref_of, label_of,
                     line_instance, ref_of, reference_greedy_centers,
                     reference_local_search, residual_problem)


def problem_of(inst, xs=None):
    xp = tuple(inst.X) if xs is None else tuple(ref_of(inst, v) for v in xs)
    return residual_problem(inst, xp)


def rows_problem(inst, rows):
    return OutlierFreeProblem(inst, np.asarray(rows, dtype=np.intp))


def centers_of(inst, res):
    return tuple(inst.F[j] for j in res.cols)


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
    assert centers_of(inst, res) == (fref_of(inst, 1),)
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
    prob = problem_of(inst)
    res = solve_exact(prob)
    sol = Solution(outliers=frozenset(), clusters=prob.clusters_of(res.assign),
                   centers=centers_of(inst, res), cost=res.cost)
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
        assert (ls1.cols, ls1.assign.tolist(), ls1.cost) == (
            ls2.cols, ls2.assign.tolist(), ls2.cost)
        assert ls1.cost >= exact.cost - 1e-9


def test_exact_output_is_local_search_fixed_point():
    inst = line_instance([0, 1, 2, 20, 21, 22], k=2)
    prob = problem_of(inst)
    exact = solve_exact(prob)
    # no single swap from the optimal centers can improve
    for i in range(2):
        for f in inst.F:
            if f in centers_of(inst, exact):
                continue
            trial = list(centers_of(inst, exact))
            trial[i] = f
            res = assign_given_centers(prob, tuple(trial))
            if res is not None:
                assert res[1] >= exact.cost - 1e-9


def test_empty_residual_set():
    inst = line_instance([0, 1], k=1, m=2)
    prob = rows_problem(inst, [])
    res = solve_exact(prob)
    assert res is not None and res.cost == 0.0
    assert all(len(c) == 0 for c in prob.clusters_of(res.assign))


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
        res = assign_given_centers(problem, centers)
        if res is None:
            continue
        clusters, cost = res
        if best_cost is None or cost < best_cost - IMPROVE_ATOL:
            best_cost, best_cols, best_assignment = cost, centers, clusters
    if best_cost is None:
        return None
    return ReferenceResult(clusters=best_assignment, centers=best_cols,
                           cost=best_cost)


def assert_same_result(problem, got, want):
    """A solver's result equals a reference's, bit for bit."""
    if want is None:
        assert got is None
        return
    assert got.cost.hex() == want.cost.hex()
    assert centers_of(problem.inst, got) == want.centers
    assert problem.clusters_of(got.assign) == want.clusters


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
            prob = rows_problem(inst, keep)
            assert_same_result(prob, solve_exact(prob),
                               reference_solve_exact(prob))
        empty = rows_problem(inst, [])
        assert_same_result(empty, solve_exact(empty),
                           reference_solve_exact(empty))


@pytest.mark.parametrize("gap,winner", [(1e-10, 1), (1e-8, 2)])
def test_exact_near_tie_keeps_first_tuple(gap, winner):
    # the second facility is cheaper by ``gap``: within IMPROVE_ATOL the
    # earlier tuple stays the incumbent
    for kind in ({"kind": "unconstrained"},
                 {"kind": "capacitated", "s": [2, 2]}):
        inst = line_instance([0], fs=[1, 1 - gap], k=1, constraint=kind)
        prob = problem_of(inst)
        res = solve_exact(prob)
        assert_same_result(prob, res, reference_solve_exact(prob))
        assert centers_of(inst, res) == (
            fref_of(inst, 1 if winner == 1 else 1 - gap),)


def test_exact_near_ties_random_match_reference():
    rng = np.random.default_rng(3)
    for trial in range(30):
        xs = rng.integers(0, 6, size=6).astype(float)
        xs[rng.integers(0, 6)] += rng.choice([-1, 1]) * 1e-10
        inst = line_instance(sorted(set(xs.tolist())), k=2)
        prob = problem_of(inst)
        assert_same_result(prob, solve_exact(prob), reference_solve_exact(prob))


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
    return solvers._label_window_flow(problem, k, W, windows,
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
        lab_of = label_of(inst)
        keep = [x for x in inst.X if rng.random() > 0.2]
        if trial % 5 == 0:  # drop every point of label "c" from X'
            keep = [x for x in keep if lab_of[x] != "c"]
        prob = residual_problem(inst, keep)
        centers = tuple(inst.F[i] for i in sorted(
            rng.choice(len(inst.F), size=k, replace=False)))
        W = prob.weight_matrix()[:, [inst.fpos[f] for f in centers]]
        got = assign_given_centers(prob, centers)
        want = flow_label_windows(prob, centers, W)
        assert (got is None) == (want is None)
        counts = {lab: sum(lab_of[x] == lab for x in keep) for lab in "abc"}
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
            inst.pow_xf[inst.xpos[x], inst.fpos[centers[i]]]
            for i, c in enumerate(got[0]) for x in c), abs=1e-9)
        assert check(inst, got[0], centers)
    assert min(seen.values()) >= 5, seen


def test_problem_from_rows_alone():
    inst = line_instance([5, 0, 9, 1, 4], fs=[0, 9], k=2)
    prob = rows_problem(inst, [4, 0, 3])
    keep = (inst.X[4], inst.X[0], inst.X[3])
    assert prob.n == 3
    assert prob.X_prime == keep and hash(prob.X_prime) == hash(keep)
    assert (prob.weight_matrix().tobytes()
            == inst.space.powered_rows(keep, inst.F).tobytes())
    assert rows_problem(inst, []).X_prime == ()
    assert rows_problem(inst, []).weight_matrix().shape == (0, 2)
    # the driver's residual: X without a removed set, in X order
    without = OutlierFreeProblem.without(inst, {inst.X[1], inst.X[2]})
    assert without.rows.dtype == np.intp and without.rows.tolist() == [0, 3, 4]


def test_clusters_of_matches_loop():
    rng = np.random.default_rng(23)
    inst = line_instance(rng.permutation(30).tolist(), fs=[0, 10, 20], k=3)
    for _ in range(20):
        rows = rng.permutation(inst.n)[:int(rng.integers(0, inst.n + 1))]
        prob = rows_problem(inst, rows)
        assign = rng.integers(0, 3, size=len(rows))
        groups = [set() for _ in range(3)]
        for u, i in zip(rows.tolist(), assign.tolist()):
            groups[i].add(inst.X[u])
        assert prob.clusters_of(assign) == tuple(frozenset(g) for g in groups)


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


def test_label_windows_engine_walks_absent_labels():
    # the engine walks the same labels as check(): a minimum of 1 for a
    # label no client carries leaves too few slots, a minimum of 0 binds
    # nothing
    for need, feasible in ((1, False), (0, True)):
        inst = line_instance([0, 1, 5, 6], fs=[0, 5], k=2, m=1,
                             labels=["a"] * 4,
                             constraint={"kind": "label_bounds",
                                         "min_per_label": {"b": need}})
        assert inst.windowed_labels == ("a", "b")
        res = solvers._assign_label_windows(problem_of(inst),
                                            problem_of(inst).weight_matrix())
        assert (res is not None) == feasible
        if feasible:
            assert res[0].tolist() == [0, 0, 1, 1] and res[1] == 2.0


def test_beta_only_fractional_spec_is_enforced():
    # beta(a) = 1/2 with no alpha map, built in code: a cluster may hold at
    # most half "a" clients, so the three "a" of four clients never fit in
    # one cluster
    base = line_instance([0, 1, 2, 3], k=1, m=2, labels=["a", "a", "a", "b"],
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {}})
    spec = ConstraintSpec("label_bounds", beta={"a": Fraction(1, 2)})
    inst = ClusteringInstance(base.space, base.X, base.F, 1, 2, base.labels,
                              spec)
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert again.constraint.beta == spec.beta
    for inst in (inst, again):
        assert inst.constraint.fractional
        center = [inst.F[0]]
        assert not check(inst, [frozenset(inst.X)], center)
        assert not check(inst, [frozenset(inst.X[1:])], center)
        assert check(inst, [frozenset(inst.X[2:])], center)
        for solve in (solve_exact, solve_local_search):
            assert solve(problem_of(inst)) is None
            prob = rows_problem(inst, [2, 3])
            res = solve(prob)
            assert res.cost == pytest.approx(1.0)
            assert check(inst, prob.clusters_of(res.assign),
                         centers_of(inst, res))


def local_search_instances(spec, labelled, rng):
    """Line and integer-matrix instances of one constraint kind, z = 1, 2;
    capacities are drawn per facility, 0 included."""
    for trial in range(8):
        spec = dict(spec)
        z = 1 + trial % 2
        if trial % 4 < 2:
            xs = sorted(set(rng.integers(0, 12, size=8).tolist()))
            fs = sorted(set(rng.integers(0, 12, size=5).tolist()))
            if spec["kind"] == "capacitated":
                spec["s"] = [int(rng.integers(0, 5)) for _ in fs]
            labels = ([("a", "b")[int(rng.integers(0, 2))] for _ in xs]
                      if labelled else None)
            yield line_instance(xs, fs, k=2, m=2, z=z, constraint=spec,
                                labels=labels)
            continue
        size = 10
        dist = rng.integers(2, 5, size=(size, size)).astype(float)
        dist = np.triu(dist, 1) + np.triu(dist, 1).T  # 2..4 keeps triangles
        refs = [int(r) for r in rng.permutation(size)]
        facilities = refs[4:]
        if spec["kind"] == "capacitated":
            spec["s"] = [int(rng.integers(0, 5)) for _ in facilities]
        data = {"metric": {"kind": "matrix", "matrix": dist.tolist()},
                "z": z, "points": refs[:7], "facilities": facilities,
                "k": 2, "m": 2, "constraint": spec}
        if labelled:
            data["labels"] = [("a", "b")[int(rng.integers(0, 2))]
                              for _ in range(7)]
        yield instance_from_dict(data)


@pytest.mark.parametrize("spec,labelled", KIND_SPECS)
def test_local_search_matches_reference_loop(spec, labelled):
    # every swap the bound skips would have failed the acceptance test, so
    # the result equals the loop that solves every swap, bit for bit
    rng = np.random.default_rng(31)
    seen = {"fallback": 0, "feasible": 0}
    for inst in local_search_instances(spec, labelled, rng):
        for drop in (0, 1, 2):
            keep = sorted(rng.choice(inst.n, size=inst.n - drop,
                                     replace=False))
            prob = rows_problem(inst, keep)
            for seed in (0, 1, 7):
                got = solve_local_search(prob, seed)
                assert_same_result(prob, got,
                                   reference_local_search(prob, seed))
                seen["feasible"] += got is not None
                cols = reference_greedy_centers(
                    prob, np.random.default_rng(seed), prob.weight_matrix())
                seen["fallback"] += got is not None and assign_given_centers(
                    prob, tuple(inst.F[j] for j in cols)) is None
    assert seen["feasible"] >= 5, seen
    if spec["kind"] == "capacitated":
        assert seen["fallback"] >= 5, seen


@pytest.mark.parametrize("gap,moves", [(1e-10, False), (1e-9, False),
                                       (2e-9, True), (1e-8, True)])
def test_local_search_near_tie_after_fallback(gap, moves):
    # the seed, facility 0.5, has capacity 0, so the fallback scan starts
    # from facility 1; the swap to 1 - gap has a bound within a few
    # IMPROVE_ATOL of the acceptance threshold 1 - IMPROVE_ATOL
    inst = line_instance([0], fs=[0.5, 1, 1 - gap], k=1,
                         constraint={"kind": "capacitated", "s": [0, 1, 1]})
    prob = problem_of(inst)
    assert assign_given_centers(prob, (inst.F[0],)) is None
    res = solve_local_search(prob)
    assert_same_result(prob, res, reference_local_search(prob))
    assert centers_of(inst, res) == (fref_of(inst, 1 - gap if moves else 1),)


def test_local_search_near_ties_random_match_reference():
    rng = np.random.default_rng(5)
    for trial in range(40):
        xs = rng.integers(0, 8, size=8).astype(float)
        xs[rng.integers(0, 8)] += rng.choice([-1, 1]) * rng.choice(
            [1e-10, 5e-10, 1e-9, 2e-9])
        xs = sorted(set(xs.tolist()))
        spec = ({"kind": "capacitated",
                 "s": [int(rng.integers(1, 5)) for _ in xs]}
                if trial % 2 else {"kind": "unconstrained"})
        inst = line_instance(xs, k=2, z=1 + trial % 3 // 2, constraint=spec)
        prob = problem_of(inst)
        for seed in (0, 1):
            assert_same_result(prob, solve_local_search(prob, seed),
                               reference_local_search(prob, seed))


def test_local_search_accepts_a_swap_summed_below_its_bound():
    # label windows sum each label's costs apart, so a swap whose windows do
    # not bind can cost an ulp less than its nearest-center bound; the
    # relative slack keeps that swap, which the full sweep accepts
    xs = [1.775488581674567, 2.3864506687610874, 4.051532386312797,
          6.1125068865206025, 7.814761747149061, 1e14]
    fs = [2.3864506687610874, 4.051532386312797, 6.1125068865206025,
          8967478244506.21, 67351378944946.59, 1e14]
    inst = line_instance(xs, fs, k=1, labels=["a", "b", "a", "b", "a", "a"],
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"a": 0},
                                     "max_per_label": {"b": 6}})
    prob = problem_of(inst)
    res = solve_local_search(prob)
    assert_same_result(prob, res, reference_local_search(prob))
    col = res.cols[0]
    bound = solvers._tuple_bounds(np.ascontiguousarray(
        prob.weight_matrix().T), np.array([[col]]))[0]
    assert res.cost < bound


def test_local_search_skips_swaps_that_cannot_win(monkeypatch):
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.uniform(0, 2, 10), rng.uniform(30, 32, 10)])
    inst = line_instance(xs.round(6).tolist(), k=2,
                         constraint={"kind": "capacitated", "s": [12] * 20})
    calls = []
    assignment = solvers._assignment
    monkeypatch.setattr(solvers, "_assignment",
                        lambda *args: calls.append(1) or assignment(*args))
    res = solve_local_search(problem_of(inst))
    solved = len(calls)
    monkeypatch.undo()
    assert_same_result(problem_of(inst), res,
                       reference_local_search(problem_of(inst)))
    # the reference solves the seed and all 2 * 18 swaps of every sweep
    assert 0 < solved < 36 // 2


@st.composite
def bound_premise_cases(draw):
    """A small residual problem of any constraint kind, with coordinates
    spread over a wide range so that summation order shows."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e7]))
    coord = st.floats(0, 100, allow_nan=False).map(lambda v: v * scale)
    xs = draw(st.lists(coord, min_size=1, max_size=6, unique=True))
    fs = draw(st.lists(coord, min_size=1, max_size=4, unique=True))
    k = draw(st.integers(1, min(3, len(fs))))
    n = len(xs)
    kind = draw(st.sampled_from(["unconstrained", "capacitated",
                                 "size_bounds", "label_bounds",
                                 "fractional", "outlier_label_quota"]))
    labels = None
    if kind in ("label_bounds", "fractional", "outlier_label_quota"):
        labels = draw(st.lists(st.sampled_from("ab"), min_size=n,
                               max_size=n))
    if kind == "capacitated":
        spec = {"kind": kind, "s": draw(st.lists(
            st.integers(0, n), min_size=len(fs), max_size=len(fs)))}
    elif kind == "size_bounds":
        r = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        spec = {"kind": kind, "r": r,
                "l": [ri + draw(st.integers(0, n)) for ri in r]}
    elif kind == "label_bounds":
        spec = {"kind": kind, "min_per_label": {"a": draw(st.integers(0, 1))},
                "max_per_label": {"b": draw(st.integers(0, n))}}
    elif kind == "fractional":
        spec = {"kind": "label_bounds",
                "alpha": {"a": draw(st.sampled_from(["0", "1/4", "1/3"]))},
                "beta": {"a": draw(st.sampled_from(["1/2", "3/4", "1"]))}}
    elif kind == "outlier_label_quota":
        spec = {"kind": kind, "quota": {"a": draw(st.integers(0, 1))}}
    else:
        spec = {"kind": kind}
    inst = line_instance(xs, fs, k=k, m=2, z=draw(st.sampled_from([1, 2])),
                         constraint=spec, labels=labels)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rows_problem(inst, np.flatnonzero(keep))


@settings(max_examples=150, deadline=None)
@given(bound_premise_cases())
def test_assignment_cost_is_at_least_shrunk_bound(prob):
    # the local search skips a swap when its shrunk bound misses the
    # acceptance threshold; that is sound only if no feasible assignment
    # of the same centers costs less than the shrunk bound
    inst = prob.inst
    W_all = prob.weight_matrix()
    tuples = solvers._center_tuples(len(inst.F), inst.k,
                                    inst.constraint.cluster_indexed)
    bounds = solvers._tuple_bounds(np.ascontiguousarray(W_all.T), tuples)
    shrink = 1.0 - 4.0 * prob.n * np.finfo(float).eps
    for cols, bound in zip(tuples, bounds):
        res = assign_given_centers(prob, tuple(inst.F[j] for j in cols))
        if res is not None:
            assert res[1] >= bound * shrink
