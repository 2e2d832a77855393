"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1-3 exercise the end-to-end guarantee (deterministically with the
exhaustive pool, probabilistically with real sampling), 4-8 certify the
combinatorial engines against independent enumeration oracles, 9 checks
byte-level determinism across parallelism, 10 checks budget monotonicity.
"""

import itertools
import json
import math

import numpy as np
import pytest

from outlier_reduce.baseline import solve_unconstrained
from outlier_reduce.bmatching import BMatchingInfeasible, prune_left, solve_bmatching
from outlier_reduce.cli import main as cli_main
from outlier_reduce.gen import GeneratorConfig, generate_instance, generate_instance_dict
from outlier_reduce.instance import instance_from_dict
from outlier_reduce.metric import ulam_distance
from outlier_reduce.oracle import exact_outlier_opt, ulam_bfs, ulam_bfs_distances
from outlier_reduce.reduction import (ReductionConfig, ReductionInfeasible,
                                      enumerate_valid_tuples, run_reduction)
from outlier_reduce.sampling import dz_sample, sample_size
from outlier_reduce.solvers import assign_given_centers, get_plugin
from helpers import (brute_assignment, brute_bmatching,
                     random_bmatching_problem, residual_problem)

EXACT = get_plugin("exact")
EPSILON = 0.5


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def loss_bound(z: int, m: int, epsilon: float = EPSILON) -> float:
    return 1.0 + epsilon ** (1.0 / z) * (2 * m + 1) ** (z - 1)


def theorem_family():
    """>= 100 instances covering n <= 12, k <= 3, m <= 2, both z values and
    the three cardinality constraint kinds."""
    shapes = [
        dict(n=6, k=2, m=0),
        dict(n=7, k=1, m=2),
        dict(n=8, k=2, m=1),
        dict(n=9, k=2, m=2),
        dict(n=9, k=3, m=1, metric="matrix"),
        dict(n=10, k=3, m=1),
        dict(n=10, k=2, m=2, metric="matrix"),
        dict(n=8, k=2, m=2, metric="ulam"),
        dict(n=9, k=2, m=1, nonuniform=True),
        dict(n=11, k=3, m=2),
        dict(n=12, k=3, m=2),
    ]
    cases = []
    seed = 0
    for rnd in range(2):
        for shape in shapes:
            for constraint in ("unconstrained", "capacitated", "size_bounds"):
                for z in (1, 2):
                    cfg = GeneratorConfig(z=z, constraint=constraint,
                                          **shape)
                    cases.append((cfg, seed))
                    seed += 1
    return cases


def test_criterion_1_theorem_deterministic():
    cases = theorem_family()
    assert len(cases) >= 100
    worst = 0.0
    failures = []
    for cfg, seed in cases:
        inst = generate_instance(cfg, seed)
        res = run_reduction(inst, ReductionConfig(epsilon=EPSILON,
                                                  sampling="exhaustive"),
                            EXACT)
        opt, _ = exact_outlier_opt(inst)
        bound = loss_bound(inst.space.z, inst.m)
        ratio = res.solution.cost / opt if opt > 0 else 1.0
        worst = max(worst, ratio)
        if res.solution.cost > bound * opt + 1e-9:
            failures.append((cfg, seed, ratio, bound))
    report("criterion 1 (deterministic loss bound)", not failures,
           f"{len(cases)} instances, worst ratio {worst:.6f}")


def test_criterion_2_theorem_probabilistic():
    bases = []
    seed = 100
    for n in (8, 9, 10):
        for constraint in ("unconstrained", "capacitated", "size_bounds"):
            for z in (1, 2):
                if len(bases) < 10:
                    bases.append((GeneratorConfig(n=n, k=2, m=2, z=z,
                                                  constraint=constraint),
                                  seed))
                    seed += 1
    trials_per_base = 20
    held = 0
    total = 0
    for cfg, seed in bases:
        inst = generate_instance(cfg, seed)
        opt, _ = exact_outlier_opt(inst)
        bound = loss_bound(inst.space.z, inst.m)
        for trial in range(trials_per_base):
            config = ReductionConfig(epsilon=EPSILON, beta=5.0,
                                     sampling="random",
                                     sample_seed=1000 * seed + trial,
                                     z2_substitution=False)
            total += 1
            try:
                res = run_reduction(inst, config, EXACT)
            except ReductionInfeasible:
                continue
            assert len(res.pool.draws) == 56  # sample_size(5, 2, 0.5)
            if res.solution.cost <= bound * opt + 1e-9:
                held += 1
    passed = total == 200 and held / total >= 0.5
    report("criterion 2 (probabilistic loss bound)", passed,
           f"bound held in {held}/{total} trials (need >= 50%)")


def test_criterion_3_far_outlier_capture():
    m, beta = 2, 5.0
    count = sample_size(beta, m, EPSILON)
    bases = [(GeneratorConfig(n=10, k=2, m=m, z=z, facilities="centers"),
              s) for z, s in ((1, 300), (2, 301), (1, 302), (2, 303),
                              (1, 304))]
    hits = 0
    total = 0
    for cfg, seed in bases:
        inst = generate_instance(cfg, seed)
        anchors = solve_unconstrained(inst, min(inst.k + m, len(inst.F)), 0)
        planted = set(inst.X[-m:])
        threshold = EPSILON * anchors.anchor_cost / (2 * beta * m)
        for x in planted:
            mass, _ = inst.space.powered_to_set(x, anchors.centers)
            assert mass >= threshold, "planted point below the far threshold"
        for trial in range(100):
            pool = dz_sample(inst, anchors, count, rng_seed=trial)
            total += 1
            if planted <= set(pool.distinct):
                hits += 1
    passed = total == 500 and hits / total >= 1 - 1 / m
    report("criterion 3 (far-outlier capture)", passed,
           f"all planted points sampled in {hits}/{total} trials "
           f"(need >= {1 - 1 / m:.0%})")


def test_criterion_4_bmatching_exactness():
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(1000):
        labelled = trial % 2 == 1
        prob = random_bmatching_problem(rng, labelled=labelled)
        expected = brute_bmatching(prob.weights, prob.demands,
                                   prob.left_labels, prob.label_demands)
        if expected is None:
            with pytest.raises(BMatchingInfeasible):
                solve_bmatching(prob)
        else:
            got = solve_bmatching(prob).total_weight
            assert abs(got - expected) <= 1e-9, (got, expected)
        checked += 1
    report("criterion 4 (b-matching exactness)", checked == 1000,
           f"{checked} random instances match exhaustive enumeration")


def test_criterion_5_pruning_preserves_optimum():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(500):
        labelled = trial % 5 == 4
        prob = random_bmatching_problem(rng, labelled=labelled, max_left=12,
                                        max_right=4, max_labels=2)
        m = int(rng.integers(0, 4))
        # stay in the regime the reduction uses: total demand <= m
        if prob.total_demand > m:
            demands = list(prob.demands)
            while sum(demands) > m:
                j = next(i for i in range(len(demands)) if demands[i] > 0)
                demands[j] -= 1
            label_demands = prob.label_demands
            if labelled:
                label_demands = []
                for j, t in enumerate(demands):
                    psi = list(prob.label_demands[j])
                    while sum(psi) > t:
                        lab = next(c for c, v in enumerate(psi) if v > 0)
                        psi[lab] -= 1
                    label_demands.append(tuple(psi))
                label_demands = tuple(label_demands)
            prob = type(prob)(weights=prob.weights, demands=tuple(demands),
                              left_labels=prob.left_labels,
                              label_demands=label_demands)
        try:
            full = solve_bmatching(prob).total_weight
        except BMatchingInfeasible:
            with pytest.raises(BMatchingInfeasible):
                solve_bmatching(prune_left(prob, m)[1])
            checked += 1
            continue
        cut = solve_bmatching(prune_left(prob, m)[1]).total_weight
        assert abs(cut - full) <= 1e-9, (cut, full)
        checked += 1
    report("criterion 5 (pruning preservation)", checked == 500,
           f"{checked} random instances keep the optimum after pruning")


def test_criterion_6_ulam_correctness():
    pairs = 0
    for length in range(1, 6):
        perms = list(itertools.permutations(range(1, length + 1)))
        for p in perms:
            table = ulam_bfs_distances(p)
            for q in perms:
                assert ulam_distance(p, q) == table[q]
                pairs += 1
    rng = np.random.default_rng(6)
    for _ in range(1000):
        p = tuple(int(v) for v in rng.permutation(6) + 1)
        q = tuple(int(v) for v in rng.permutation(6) + 1)
        assert ulam_distance(p, q) == ulam_bfs(p, q)
        pairs += 1
    report("criterion 6 (Ulam metric correctness)", True,
           f"{pairs} pairs match the BFS move oracle")


def test_criterion_7_tuple_counts():
    checked = 0
    for residual in range(5):
        for slots in range(1, 7):
            got = sum(1 for _ in enumerate_valid_tuples(residual, slots))
            expected = math.comb(residual + slots - 1, slots - 1)
            assert got == expected, (residual, slots, got, expected)
            checked += 1
    # m = 2, k = 1: slots = k + m = 3, empty Y leaves residual m = 2
    anchor = sum(1 for _ in enumerate_valid_tuples(2, 3))
    assert anchor == math.comb(4, 2) == 6
    report("criterion 7 (tuple-count closed forms)", True,
           f"{checked} (residual, slots) pairs plus the C(4,2)=6 anchor")


def _random_assignment_case(kind: str, rng):
    n = int(rng.integers(4, 9))
    k = int(rng.integers(1, 4))
    xs = np.round(rng.uniform(0, 50, size=n), 4)
    xs = sorted(set(float(v) for v in xs))
    n = len(xs)
    labels = None
    constraint = {"kind": "unconstrained"}
    m = 0
    if kind == "capacitated":
        constraint = {"kind": "capacitated",
                      "s": [int(rng.integers(1, n + 1)) for _ in range(n)]}
    elif kind == "size_bounds":
        r = [int(rng.integers(0, 2)) for _ in range(k)]
        l = [int(rng.integers(max(ri, 1), n + 1)) for ri in r]
        constraint = {"kind": "size_bounds", "r": r, "l": l}
    elif kind == "label_bounds":
        labels = [f"L{int(rng.integers(0, 2))}" for _ in range(n)]
        if rng.integers(0, 2):
            constraint = {"kind": "label_bounds",
                          "min_per_label": {"L0": int(rng.integers(0, 2))},
                          "max_per_label": {"L1": int(rng.integers(1, n))}}
        else:
            constraint = {"kind": "label_bounds", "alpha": {"L0": "1/4"},
                          "beta": {"L0": "3/4"}}
    elif kind == "outlier_label_quota":
        labels = [f"L{int(rng.integers(0, 2))}" for _ in range(n)]
        m = 2
        constraint = {"kind": "outlier_label_quota",
                      "quota": {"L0": int(rng.integers(0, 2))}}
    data = {
        "metric": {"kind": "euclidean", "dim": 1}, "z": int(rng.integers(1, 3)),
        "points": [[v] for v in xs], "facilities": [[v] for v in xs],
        "k": k, "m": m, "constraint": constraint,
    }
    if labels is not None:
        data["labels"] = labels
    inst = instance_from_dict(data)
    if kind == "outlier_label_quota":
        removed = {inst.X[i] for i in
                   rng.choice(inst.n, size=min(m, inst.n), replace=False)}
        x_prime = tuple(x for x in inst.X if x not in removed)
    else:
        x_prime = tuple(inst.X)
    centers = tuple(inst.F[i] for i in sorted(
        rng.choice(len(inst.F), size=k, replace=False)))
    return inst, x_prime, centers


def test_criterion_8_assignment_exactness():
    kinds = ("unconstrained", "capacitated", "size_bounds", "label_bounds",
             "outlier_label_quota")
    per_kind = 500
    checked = 0
    for kind_index, kind in enumerate(kinds):
        rng = np.random.default_rng(8000 + kind_index)
        for _ in range(per_kind):
            inst, x_prime, centers = _random_assignment_case(kind, rng)
            got = assign_given_centers(residual_problem(inst, x_prime),
                                       centers)
            expected = brute_assignment(inst, list(x_prime), centers)
            if expected is None:
                assert got is None, (kind, got)
            else:
                assert got is not None, (kind, expected)
                assert abs(got[1] - expected) <= 1e-9, (kind, got[1], expected)
            checked += 1
    report("criterion 8 (flow-assignment exactness)",
           checked == per_kind * len(kinds),
           f"{checked} cases over {len(kinds)} constraint kinds match "
           "exhaustive assignment")


def test_criterion_9_parallel_determinism(tmp_path):
    mismatches = []
    for i in range(50):
        cfg = GeneratorConfig(n=8 + i % 3, k=2, m=1 + i % 2,
                              z=1 + i % 2,
                              constraint=("unconstrained", "capacitated",
                                          "size_bounds")[i % 3])
        inst_path = tmp_path / f"inst_{i}.json"
        data = generate_instance_dict(cfg, seed=900 + i)
        inst_path.write_text(json.dumps(data))
        outs = []
        for parallel in (1, 8):
            out = tmp_path / f"sol_{i}_{parallel}.json"
            args = ["solve", "--input", str(inst_path), "--out", str(out),
                    "--parallel", str(parallel), "--seed", str(i)]
            if i % 2 == 0:
                args.append("--exhaustive-sample")
            assert cli_main(args) == 0
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(i)
    report("criterion 9 (parallel determinism)", not mismatches,
           f"50 instances byte-identical across --parallel 1/8"
           + (f"; mismatches {mismatches}" if mismatches else ""))


def test_criterion_10_budget_monotonicity():
    chains = 0
    violations = []
    seed = 500
    for rep in range(17):
        for constraint in ("unconstrained", "capacitated", "size_bounds"):
            for z in (1, 2):
                if chains >= 100:
                    break
                cfg = GeneratorConfig(n=7 + rep % 2, k=2, m=2, z=z,
                                      constraint=constraint)
                base = generate_instance_dict(cfg, seed)
                seed += 1
                prev_red = prev_orc = float("inf")
                for m in (0, 1, 2):
                    inst = instance_from_dict(dict(base, m=m))
                    try:
                        red = run_reduction(
                            inst, ReductionConfig(sampling="exhaustive"),
                            EXACT).solution.cost
                    except ReductionInfeasible:
                        red = float("inf")
                    orc, _ = exact_outlier_opt(inst)
                    if red > prev_red + 1e-9 or orc > prev_orc + 1e-9:
                        violations.append((constraint, z, seed - 1, m))
                    prev_red, prev_orc = red, orc
                chains += 1
    report("criterion 10 (budget monotonicity)", chains >= 100 and not violations,
           f"{chains} chains m=0,1,2 non-increasing for oracle and reduction"
           + (f"; violations {violations}" if violations else ""))
