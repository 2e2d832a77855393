import math
import sys
import time
import types

import pytest

from outlier_reduce import reduction
from outlier_reduce.instance import validate_solution
from outlier_reduce.oracle import exact_outlier_opt
from outlier_reduce.reduction import (ReductionConfig, ReductionInfeasible,
                                      effective_epsilon,
                                      enumerate_outlier_subsets,
                                      enumerate_valid_tuples, run_reduction)
from outlier_reduce.sampling import SamplePool
from outlier_reduce.solvers import SolverPlugin, get_plugin
from outlier_reduce.gen import GeneratorConfig, generate_instance
from helpers import line_instance, ref_of

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
