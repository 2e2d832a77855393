import dataclasses
import importlib
import math
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from outlier_reduce import reduction, solvers
from outlier_reduce.baseline import AnchorSet
from outlier_reduce.bmatching import prune_left, solve_bmatching
from outlier_reduce.instance import instance_from_dict, validate_solution
from outlier_reduce.oracle import exact_outlier_opt
from outlier_reduce.reduction import (PluginContractError, ReductionConfig,
                                      ReductionInfeasible,
                                      effective_epsilon,
                                      enumerate_outlier_subsets,
                                      enumerate_valid_tuples, run_reduction)
from outlier_reduce.sampling import SamplePool
from outlier_reduce.solvers import (OutlierFreeProblem, SolverPlugin,
                                    SolverResult, get_plugin, solve_exact,
                                    solve_local_search)
from outlier_reduce.gen import (GeneratorConfig, generate_instance,
                                generate_instance_dict)
from helpers import (build_matching_problem, line_instance, ref_of,
                     reference_reduction)

EXACT = get_plugin("exact")


def pool_of(*refs):
    return SamplePool(draws=tuple(refs), distinct=tuple(sorted(set(refs))),
                      mode="exhaustive")


def exhaustive_config(**kw):
    return ReductionConfig(sampling="exhaustive", **kw)


def test_subsets_m0():
    assert list(enumerate_outlier_subsets(pool_of(1, 2, 3), 0)) == [()]


def test_subsets_powerset():
    subsets = list(enumerate_outlier_subsets(pool_of(5, 7, 5, 7), 2))
    assert subsets == [(), (5,), (7,), (5, 7)]


def test_subsets_binomial_count():
    subsets = list(enumerate_outlier_subsets(pool_of(*range(5)), 2))
    assert len(subsets) == 1 + 5 + 10


def test_tuples_residual_zero():
    tuples = list(enumerate_valid_tuples(0, 4))
    assert len(tuples) == 1 and tuples[0].t == (0, 0, 0, 0)


def test_tuples_stars_and_bars():
    tuples = list(enumerate_valid_tuples(2, 3))
    expected = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                (0, 1, 1)}
    assert {v.t for v in tuples} == expected
    assert len(tuples) == len(expected)


def test_tuples_closed_form_counts():
    for residual in range(5):
        for slots in range(1, 7):
            n = sum(1 for _ in enumerate_valid_tuples(residual, slots))
            assert n == math.comb(residual + slots - 1, slots - 1)


def test_labelled_tuple_count():
    tuples = list(enumerate_valid_tuples(2, 3, num_labels=2))
    # each count t splits into t+1 label partitions
    assert len(tuples) == 21
    for v in tuples:
        assert v.psi is not None
        for tj, psi in zip(v.t, v.psi):
            assert sum(psi) == tj


def test_effective_epsilon_rule():
    assert effective_epsilon(0.5, 1, 2) == 0.5
    assert effective_epsilon(0.5, 2, 2) == pytest.approx(0.25 / 25)
    assert effective_epsilon(0.5, 2, 2, enabled=False) == 0.5


def test_m0_single_iteration():
    inst = line_instance([0, 1, 10], k=1, m=0)
    res = run_reduction(inst, exhaustive_config(), EXACT)
    assert res.q == 1
    assert res.solution.cost == pytest.approx(10.0)  # center at 1: 1 + 0 + 9


def test_three_point_example():
    inst = line_instance([0, 1, 10], k=1, m=1)
    res = run_reduction(inst, exhaustive_config(), EXACT)
    assert res.solution.cost == pytest.approx(1.0)
    assert res.solution.outliers == {ref_of(inst, 10)}
    assert set(res.solution.clusters[0]) == {ref_of(inst, 0), ref_of(inst, 1)}


def test_capacitated_far_point_example():
    inst = line_instance(
        [0, 1, 2, 50], k=1, m=1,
        constraint={"kind": "capacitated", "s": [3, 2, 3, 3]})
    res = run_reduction(inst, exhaustive_config(), EXACT)
    opt, osol = exact_outlier_opt(inst)
    assert res.solution.cost == pytest.approx(opt, abs=1e-9)
    assert ref_of(inst, 50) in res.solution.outliers
    assert ref_of(inst, 50) in osol.outliers


def test_output_validates():
    inst = generate_instance(GeneratorConfig(n=9, k=2, m=1), seed=1)
    res = run_reduction(inst, exhaustive_config(), EXACT)
    report = validate_solution(inst, res.solution)
    assert report.feasible, report.violations


def _scaled(data, s):
    """The instance dict with every distance multiplied by ``s``."""
    data = dict(data)
    if data["metric"]["kind"] == "matrix":
        data["metric"] = dict(data["metric"], matrix=[
            [s * d for d in row] for row in data["metric"]["matrix"]])
    else:
        for key in ("points", "facilities"):
            data[key] = [[s * c for c in p] for p in data[key]]
    return data


@pytest.mark.parametrize("metric", ["euclidean", "matrix"])
@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("kind", ["unconstrained", "capacitated",
                                  "size_bounds", "label_bounds",
                                  "outlier_label_quota"])
def test_scaled_distances_scale_the_solution(kind, z, metric):
    # s·D keeps the centers and outliers and scales the cost by s^z, and
    # validate_solution accepts the result at every cost scale
    for seed in (0, 1):
        data = generate_instance_dict(GeneratorConfig(
            n=10, k=2, m=2, z=z, metric=metric, constraint=kind), seed)
        base = run_reduction(instance_from_dict(data), exhaustive_config(),
                             EXACT).solution
        for s in (1e-9, 1e-6, 1000, 12345.678):
            inst = instance_from_dict(_scaled(data, s))
            sol = run_reduction(inst, exhaustive_config(), EXACT).solution
            assert (sol.centers, sol.outliers) == (base.centers,
                                                   base.outliers)
            assert sol.cost / s ** z == pytest.approx(base.cost, rel=1e-9)
            report = validate_solution(inst, sol)
            assert report.feasible, report.violations


def test_validate_solution_rejects_a_wrong_cost_at_a_small_scale():
    # at s = 1e-6 with z = 2 costs are near 1e-11, below any absolute
    # floor: a stated cost of 0 or of twice the true cost is still wrong
    data = generate_instance_dict(GeneratorConfig(n=10, k=2, m=2, z=2), 0)
    inst = instance_from_dict(_scaled(data, 1e-6))
    sol = run_reduction(inst, exhaustive_config(), EXACT).solution
    assert 0 < sol.cost < 1e-9 and validate_solution(inst, sol).feasible
    for stated in (0.0, 2 * sol.cost):
        report = validate_solution(inst, dataclasses.replace(sol, cost=stated))
        assert not report.feasible
        assert report.violations == [f"cost mismatch: stated {stated}, "
                                     f"recomputed {report.recomputed_cost}"]


def test_records_cover_all_iterations():
    inst = line_instance([0, 1, 2, 3, 10], k=1, m=2)
    res = run_reduction(inst, exhaustive_config(), EXACT)
    assert len(res.records) == res.q
    assert [r.index for r in res.records] == list(range(res.q))
    # q is bounded by powerset(distinct pool) x stars-and-bars
    distinct = len(res.pool.distinct)
    subset_bound = sum(math.comb(distinct, s) for s in range(inst.m + 1))
    tau_bound = math.comb(2 * inst.m + inst.k - 1, inst.m)
    assert res.q <= subset_bound * tau_bound


def test_monotone_in_budget():
    costs = []
    for m in (0, 1, 2):
        inst = line_instance([0, 1, 2, 7, 8, 30, 40], k=2, m=m)
        res = run_reduction(inst, exhaustive_config(), EXACT)
        costs.append(res.solution.cost)
    assert costs[0] >= costs[1] - 1e-9 >= costs[2] - 2e-9


def test_matches_oracle_exhaustive():
    for seed in range(5):
        inst = generate_instance(GeneratorConfig(n=9, k=2, m=2), seed=seed)
        res = run_reduction(inst, exhaustive_config(), EXACT)
        opt, _ = exact_outlier_opt(inst)
        assert res.solution.cost == pytest.approx(opt, abs=1e-9)


def test_parallel_equals_serial():
    inst = generate_instance(GeneratorConfig(n=10, k=2, m=2), seed=3)
    serial = run_reduction(inst, exhaustive_config(parallel=1), EXACT)
    threaded = run_reduction(inst, exhaustive_config(parallel=4), EXACT)
    assert serial.solution == threaded.solution
    assert serial.chosen_Y == threaded.chosen_Y
    assert serial.chosen_tau == threaded.chosen_tau
    assert serial.q == threaded.q


def test_labelled_reduction_reaches_oracle():
    inst = generate_instance(
        GeneratorConfig(n=8, k=2, m=1, constraint="outlier_label_quota"),
        seed=2)
    res = run_reduction(inst, exhaustive_config(), EXACT)
    opt, _ = exact_outlier_opt(inst)
    assert res.solution.cost == pytest.approx(opt, abs=1e-9)
    report = validate_solution(inst, res.solution)
    assert report.feasible, report.violations


def test_infeasible_instance_raises():
    # only one facility with capacity 1 but two points must be clustered
    inst = line_instance([0, 1, 2], fs=[0], k=1, m=1,
                         constraint={"kind": "capacitated", "s": [1]})
    with pytest.raises(ReductionInfeasible):
        run_reduction(inst, exhaustive_config(), EXACT)


def test_early_stop_zero_cost():
    inst = line_instance([0, 0.5, 100], fs=[0, 0.5, 100], k=2, m=1)
    full = run_reduction(inst, exhaustive_config(), EXACT)
    stopped = run_reduction(inst, exhaustive_config(early_stop_zero=True),
                            EXACT)
    assert stopped.solution.cost == pytest.approx(0.0)
    assert stopped.solution == full.solution
    assert len(stopped.records) <= len(full.records)


def test_early_stop_ends_at_the_first_zero_cost_pair():
    # two clusters of three coincident points and two far points: removing
    # the far pair costs 0, and the run stops at the first pair that does,
    # whatever the parallel setting
    pos = [0, 0, 0, 10, 10, 10, 50, 90]
    inst = instance_from_dict({
        "metric": {"kind": "matrix",
                   "matrix": [[float(abs(a - b)) for b in pos] for a in pos]},
        "z": 1, "points": list(range(8)), "facilities": list(range(8)),
        "k": 2, "m": 2, "constraint": {"kind": "unconstrained"}})
    runs = [run_reduction(inst, exhaustive_config(parallel=parallel,
                                                  early_stop_zero=True), EXACT)
            for parallel in (1, 4)]
    at_1, at_4 = (run_fields(res.records, res.solution, res.chosen_Y,
                             res.chosen_tau, res.q) for res in runs)
    assert at_1 == at_4
    zero = [r.solver_cost == 0.0 for r in runs[0].records]
    assert zero[-1] and not any(zero[:-1])


def test_early_stop_runs_past_a_tiny_positive_cost():
    # every pair costs under 2e-14 here and none costs 0, so the run does
    # not stop early and removes the far point
    inst = line_instance([1e-9 * v for v in (-100, 0, 1, 2, 3)], k=1, m=1,
                         z=2)
    full = run_reduction(inst, exhaustive_config(), EXACT)
    stopped = run_reduction(inst, exhaustive_config(early_stop_zero=True),
                            EXACT)
    costs = [r.solver_cost for r in stopped.records if r.feasible]
    assert 0 < costs[0] <= 1e-12 and min(costs) < costs[0]
    assert len(stopped.records) == len(full.records)
    assert stopped.solution == full.solution
    assert full.solution.outliers == {ref_of(inst, -1e-7)}


def test_random_sampling_pool_size():
    inst = generate_instance(GeneratorConfig(n=10, k=2, m=2), seed=8)
    cfg = ReductionConfig(sampling="random", sample_seed=1)
    res = run_reduction(inst, cfg, EXACT)
    # beta defaults to 5 for z=1; epsilon 0.5 -> 56 draws
    assert len(res.pool.draws) == 56


def test_config_validation():
    with pytest.raises(ValueError):
        ReductionConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ReductionConfig(sampling="sometimes")
    with pytest.raises(ValueError):
        ReductionConfig(parallel=0)
    for beta in (math.inf, -math.inf, math.nan, -1.0, 0.0, 0.5):
        with pytest.raises(ValueError):
            ReductionConfig(beta=beta)
    for beta in (None, 1, 1.0, 25.0):
        assert ReductionConfig(beta=beta).beta == beta


def test_parallel_matches_serial_when_removed_sets_repeat():
    inst = generate_instance(GeneratorConfig(n=12, k=2, m=2, metric="matrix",
                                             constraint="label_bounds"),
                             seed=4)
    calls = []

    def counting_solve(problem, rng_seed=0):
        calls.append(problem.X_prime)
        return EXACT.solve(problem, rng_seed)

    plugin = SolverPlugin("exact", counting_solve, EXACT.exactness)
    serial = run_reduction(inst, exhaustive_config(), plugin)
    matched = sum(r.matching_weight is not None for r in serial.records)
    assert len(calls) < matched  # the solver cache answered some pairs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often to provoke races
    try:
        threaded = run_reduction(inst, exhaustive_config(parallel=4), plugin)
    finally:
        sys.setswitchinterval(interval)

    def records(res):
        return [(r.index, r.Y, r.tau, r.matching_weight, r.solver_cost,
                 r.feasible) for r in res.records]

    assert threaded.chosen_Y == serial.chosen_Y
    assert threaded.chosen_tau == serial.chosen_tau
    assert threaded.solution == serial.solution
    assert records(threaded) == records(serial)


def test_parallel_stage_times_count_every_call(monkeypatch):
    # each solver call sleeps 2 ms, so the solver stage must sum to at
    # least that per call however the worker threads interleave; the
    # driver's clock yields the GIL on every reading to invite a switch
    # between reading a shared total and writing it back
    inst = generate_instance(GeneratorConfig(n=12, k=2, m=2), seed=3)
    calls = []

    def sleeping_solve(problem, rng_seed=0):
        calls.append(None)
        time.sleep(0.002)
        return EXACT.solve(problem, rng_seed)

    def yielding_clock():
        time.sleep(0)
        return time.perf_counter()

    monkeypatch.setattr(reduction, "time",
                        types.SimpleNamespace(perf_counter=yielding_clock))
    plugin = SolverPlugin("exact", sleeping_solve, EXACT.exactness)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = run_reduction(inst, exhaustive_config(parallel=4), plugin)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) > 50
    assert res.timings["solver"] >= len(calls) * 0.002


def tie_heavy_instances():
    """(instance, labelled) pairs whose clients share weights: an integer
    distance matrix over clients listed out of ref order, Ulam spaces, and
    a client count close to m so some pairs leave nothing to prune."""
    rng = np.random.default_rng(61)
    size = 14
    dist = rng.integers(2, 5, size=(size, size)).astype(float)
    dist = np.triu(dist, 1) + np.triu(dist, 1).T  # entries 2..4 keep triangles
    refs = [int(r) for r in rng.permutation(size)]
    for labelled in (False, True):
        data = {"metric": {"kind": "matrix", "matrix": dist.tolist()},
                "z": 1 + labelled, "points": refs[:11], "facilities": refs[5:],
                "k": 2, "m": 3, "constraint": {"kind": "unconstrained"}}
        if labelled:
            data["labels"] = [("a", "b", "c")[int(rng.integers(0, 3))]
                              for _ in range(11)]
            data["constraint"] = {"kind": "outlier_label_quota",
                                  "quota": {"a": 1}}
        yield instance_from_dict(data), labelled
    for constraint in ("unconstrained", "label_bounds"):
        yield generate_instance(GeneratorConfig(
            n=12, k=2, m=2, metric="ulam", perm_len=4,
            constraint=constraint), seed=5), constraint != "unconstrained"
    yield line_instance([0, 1, 3, 2, 4], fs=[0, 2], k=1, m=3), False
    yield line_instance([0, 1, 3, 2, 4], fs=[0, 2], k=1, m=3,
                        labels=["a", "b", "a", "a", "b"],
                        constraint={"kind": "outlier_label_quota",
                                    "quota": {"b": 1}}), True


def test_prepared_matching_matches_prune_left():
    # the pair's pruned problem from the run's precomputed orders equals
    # prune_left of that pair's full problem, field for field, and keeps
    # the same clients
    rng = np.random.default_rng(62)
    seen = {"labelled": 0, "full_Y": 0, "no_prune": 0, "pruned": 0}
    for inst, labelled in tie_heavy_instances():
        m = inst.m
        num_labels = len(inst.label_names) if labelled else None
        for _ in range(40):
            count = int(rng.integers(1, len(inst.F) + 1))
            anchors = AnchorSet(tuple(int(f) for f in rng.choice(
                inst.F, size=count, replace=False)), 0.0)
            prepared = reduction._Prepared(inst, anchors, labelled)
            size = int(rng.integers(0, m + 1))
            Y = tuple(sorted(int(x) for x in rng.choice(inst.X, size=size,
                                                        replace=False)))
            taus = list(enumerate_valid_tuples(m - size, count, num_labels))
            tau = taus[int(rng.integers(0, len(taus)))]
            got_kept, got = prepared.matching_problem(
                {inst.xpos[y] for y in Y}, tau)
            left, full = build_matching_problem(inst, anchors, Y, tau,
                                                labelled)
            want_kept, want = prune_left(full, m)
            assert [inst.X[u] for u in got_kept] == [left[u]
                                                     for u in want_kept]
            assert got.weights.dtype == want.weights.dtype
            assert got.weights.shape == want.weights.shape
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.demands == want.demands
            assert got.left_labels == want.left_labels
            assert got.label_demands == want.label_demands
            seen["labelled"] += labelled
            seen["full_Y"] += size == m
            seen["no_prune"] += want is full
            seen["pruned"] += len(want_kept) < len(left)
    assert min(seen.values()) >= 10, seen


def run_fields(records, solution, chosen_Y, chosen_tau, q):
    return ([(r.index, r.Y, r.tau, r.matching_weight, r.solver_cost,
              r.feasible) for r in records],
            solution, chosen_Y, chosen_tau, q)


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("metric", ["euclidean", "matrix", "ulam"])
@pytest.mark.parametrize("kind", ["unconstrained", "capacitated",
                                  "size_bounds", "label_bounds",
                                  "outlier_label_quota"])
def test_matches_reference_loop(kind, metric, z):
    inst = generate_instance(GeneratorConfig(n=8, k=2, m=2, z=z,
                                             metric=metric, constraint=kind),
                             seed=11)
    want = reference_reduction(inst, exhaustive_config(), EXACT)
    assert want is not None
    for parallel in (1, 4):
        res = run_reduction(inst, exhaustive_config(parallel=parallel), EXACT)
        got = run_fields(res.records, res.solution, res.chosen_Y,
                         res.chosen_tau, res.q)
        assert got == run_fields(*want)
        assert res.solution.cost.hex() == want[1].cost.hex()


def test_stage_times_cover_the_run():
    inst = generate_instance(GeneratorConfig(n=12, k=2, m=2,
                                             constraint="capacitated"),
                             seed=3)
    for parallel in (1, 4):
        start = time.perf_counter()
        res = run_reduction(inst, exhaustive_config(parallel=parallel), EXACT)
        wall = time.perf_counter() - start
        staged = sum(res.timings[stage] for stage in
                     ("baseline", "sampling", "matching", "solver"))
        assert set(res.timings) == {"baseline", "sampling", "matching",
                                    "solver"}
        assert 0.5 * wall <= staged <= wall


def test_matches_reference_loop_when_matchings_fail():
    # one client carries label b, so a tau that asks for two b clients, or
    # for one after Y took it, has no matching
    inst = line_instance([0, 1, 2, 10, 11, 30], k=2, m=2,
                         labels=["a", "a", "a", "b", "a", "a"],
                         constraint={"kind": "label_bounds",
                                     "max_per_label": {"b": 1}})
    want = reference_reduction(inst, exhaustive_config(), EXACT)
    assert sum(r.matching_weight is None for r in want[0]) >= 10
    for parallel in (1, 4):
        res = run_reduction(inst, exhaustive_config(parallel=parallel), EXACT)
        assert run_fields(res.records, res.solution, res.chosen_Y,
                          res.chosen_tau, res.q) == run_fields(*want)


@pytest.mark.parametrize("fault", ["none", "missing", "extra", "negative",
                                   "beyond_k", "centers", "cols_range",
                                   "check", "cost_1pct_low",
                                   "small_cost_1pct_low"])
def test_plugin_contract_is_enforced(fault):
    # the exact plugin's own result, broken in one way; "none" passes. The
    # "small_" case scales the line by 1e-6 with z = 2: costs near 1e-12
    scale, z = (1e-6, 2) if fault.startswith("small_") else (1, 1)
    inst = line_instance([scale * v for v in (0, 1, 2, 10, 11)], k=2, m=1,
                         z=z, constraint={"kind": "size_bounds",
                                          "r": [1, 1], "l": [3, 3]})

    def faulty_solve(problem, rng_seed=0):
        res = EXACT.solve(problem, rng_seed)
        cols, assign, cost = list(res.cols), res.assign.copy(), res.cost
        if fault == "missing":  # the last residual point has no cluster
            assign = assign[:-1]
        elif fault == "extra":  # one more point than the residual holds
            assign = np.append(assign, 0)
        elif fault == "negative":
            assign[0] = -1
        elif fault == "beyond_k":
            assign[0] = inst.k
        elif fault == "centers":
            cols = cols[:1]
        elif fault == "cols_range":
            cols[0] = len(inst.F)
        elif fault == "check":  # an empty cluster breaks r = 1
            assign[:] = 1
            cost = float(problem.weight_matrix()[:, cols[1]].sum())
        elif fault.endswith("cost_1pct_low"):  # every residual costs > 0
            cost *= 0.99
        return SolverResult(tuple(cols), assign, cost)

    plugin = SolverPlugin("faulty", faulty_solve, "heuristic")
    if fault == "none":
        res = run_reduction(inst, exhaustive_config(), plugin)
        assert res.solution == run_reduction(inst, exhaustive_config(),
                                             EXACT).solution
        return
    with pytest.raises(PluginContractError):
        run_reduction(inst, exhaustive_config(), plugin)


def test_quota_is_tested_once_per_solver_call(monkeypatch):
    # gen --n 14 --k 2 --m 2 --seed 1 --constraint outlier_label_quota: the
    # quota asks for both outliers to carry label L0
    inst = generate_instance(GeneratorConfig(
        n=14, k=2, m=2, constraint="outlier_label_quota"), seed=1)
    counted = {"solve": 0, "quota": 0, "check": 0, "bounds": 0, "assign": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solvers, "check_counts",
                        counting("quota", solvers.check_counts))
    for module in (solvers, reduction):
        monkeypatch.setattr(module, "check", counting("check", module.check))
    plugin = SolverPlugin("exact", counting("solve", EXACT.solve),
                          EXACT.exactness)
    res = run_reduction(inst, exhaustive_config(), plugin)
    assert res.q == 239
    assert counted["solve"] > 0 and counted["quota"] == counted["solve"]
    assert counted["check"] == 0

    # a residual that drops an L1 client fails the quota before any center
    # tuple is scored or assigned
    monkeypatch.setattr(solvers, "_tuple_bounds",
                        counting("bounds", solvers._tuple_bounds))
    monkeypatch.setattr(solvers, "_assignment",
                        counting("assign", solvers._assignment))
    codes = np.array(inst.labels)
    for dropped, feasible in (("L1", False), ("L0", True)):
        rows = np.delete(np.arange(inst.n),
                         np.flatnonzero(codes == dropped)[:2])
        problem = OutlierFreeProblem(inst, rows)
        before = dict(counted)
        for solve in (solve_exact, solve_local_search):
            assert (solve(problem) is not None) == feasible
        scored = counted["bounds"] + counted["assign"]
        assert (scored > before["bounds"] + before["assign"]) == feasible
        assert counted["quota"] == before["quota"] + 2


def test_tracer_hooks_resolve_and_see_every_pair(monkeypatch):
    # bench/tracing.py wraps entry points by (owner, attribute): each must
    # still exist, and the driver must reach solve_bmatching through the
    # reduction module's name, once per pair, failed matchings included
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    inst = line_instance([0, 1, 2, 10, 11, 30], k=2, m=2,
                         labels=["a", "a", "a", "b", "a", "a"],
                         constraint={"kind": "label_bounds",
                                     "max_per_label": {"b": 1}})
    want = run_reduction(inst, exhaustive_config(), EXACT)
    calls = []

    def counting(problem):
        calls.append(problem)
        return solve_bmatching(problem)

    monkeypatch.setattr(reduction, "solve_bmatching", counting)
    got = run_reduction(inst, exhaustive_config(), EXACT)
    assert len(calls) == got.q == len(got.records)
    assert any(r.matching_weight is None for r in got.records)
    assert run_fields(got.records, got.solution, got.chosen_Y,
                      got.chosen_tau, got.q) == run_fields(
        want.records, want.solution, want.chosen_Y, want.chosen_tau, want.q)
