import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outlier_reduce.bmatching import (BMatchingInfeasible, BMatchingProblem,
                                      nearest_orders, prune_left,
                                      select_nearest, solve_bmatching)
from helpers import brute_bmatching, random_bmatching_problem, ssp_bmatching


def make_problem(weights, demands, left_labels=None, label_demands=None):
    return BMatchingProblem(weights=np.asarray(weights, dtype=float),
                            demands=tuple(demands), left_labels=left_labels,
                            label_demands=label_demands)


def edges(sol):
    return tuple(zip(sol.rows, sol.cols))


def random_problem(rng, labelled=False, max_left=8, max_right=3):
    return random_bmatching_problem(rng, labelled=labelled, max_left=max_left,
                                    max_right=max_right)


def test_all_zero_demands():
    prob = make_problem([[1.0, 2.0], [3.0, 4.0]], [0, 0])
    sol = solve_bmatching(prob)
    assert edges(sol) == () and sol.total_weight == 0.0


def test_single_center_picks_cheapest():
    prob = make_problem([[3.0], [5.0]], [1])
    sol = solve_bmatching(prob)
    assert sol.total_weight == 3.0
    assert sol.rows == (0,)


def test_two_centers_matches_brute_force():
    rng = np.random.default_rng(0)
    weights = rng.uniform(0, 10, size=(3, 2))
    prob = make_problem(weights, [1, 1])
    sol = solve_bmatching(prob)
    assert sol.total_weight == pytest.approx(
        brute_bmatching(weights, [1, 1]), abs=1e-9)


def test_labelled_respects_labels():
    # center needs one red (code 0) and one blue (code 1); the two cheap
    # clients are both red
    weights = np.array([[1.0], [2.0], [5.0]])
    prob = make_problem(weights, [2], (0, 0, 1), ((1, 1),))
    sol = solve_bmatching(prob)
    assert sol.total_weight == pytest.approx(6.0)
    assert sol.rows == (0, 2)


def test_infeasible_total_demand():
    prob = make_problem([[1.0], [2.0]], [3])
    with pytest.raises(BMatchingInfeasible, match="total demand"):
        solve_bmatching(prob)


def test_exactness_random_small():
    rng = np.random.default_rng(42)
    for _ in range(150):
        prob = random_problem(rng)
        expected = brute_bmatching(prob.weights, prob.demands)
        if expected is None:
            with pytest.raises(BMatchingInfeasible):
                solve_bmatching(prob)
        else:
            assert solve_bmatching(prob).total_weight == pytest.approx(
                expected, abs=1e-9)


def test_exactness_random_labelled():
    rng = np.random.default_rng(43)
    for _ in range(150):
        prob = random_problem(rng, labelled=True)
        expected = brute_bmatching(prob.weights, prob.demands,
                                   prob.left_labels, prob.label_demands)
        if expected is None:
            with pytest.raises(BMatchingInfeasible):
                solve_bmatching(prob)
        else:
            assert solve_bmatching(prob).total_weight == pytest.approx(
                expected, abs=1e-9)


def test_labelled_single_label_reduces_to_unlabelled():
    rng = np.random.default_rng(44)
    for _ in range(50):
        prob = random_problem(rng)
        labelled = make_problem(prob.weights, prob.demands,
                                (0,) * len(prob.weights),
                                tuple((t,) for t in prob.demands))
        try:
            plain = solve_bmatching(prob).total_weight
        except BMatchingInfeasible:
            with pytest.raises(BMatchingInfeasible):
                solve_bmatching(labelled)
            continue
        assert solve_bmatching(labelled).total_weight == pytest.approx(
            plain, abs=1e-9)


def test_prune_noop_when_small():
    prob = make_problem([[1.0], [2.0]], [1])
    assert prune_left(prob, 2) == ([0, 1], prob)
    assert prune_left(prob, 2)[1] is prob


def test_prune_keeps_nearest():
    prob = make_problem([[1.0], [2.0], [3.0], [4.0]], [1])
    kept, pruned = prune_left(prob, 2)
    assert kept == [0, 1]
    assert pruned.weights.tolist() == [[1.0], [2.0]]
    for t in (1, 2):
        full = solve_bmatching(make_problem(prob.weights, [t]))
        cut = solve_bmatching(
            prune_left(make_problem(prob.weights, [t]), 2)[1])
        assert cut.total_weight == pytest.approx(full.total_weight, abs=1e-9)


def test_prune_preserves_optimum_random():
    rng = np.random.default_rng(45)
    for _ in range(100):
        nl = int(rng.integers(4, 13))
        weights = rng.uniform(0, 10, size=(nl, 3))
        m = 2
        demands = [0, 0, 0]
        for _ in range(int(rng.integers(0, m + 1))):
            demands[int(rng.integers(0, 3))] += 1
        prob = make_problem(weights, demands)
        full = solve_bmatching(prob).total_weight
        cut = solve_bmatching(prune_left(prob, m)[1]).total_weight
        assert cut == pytest.approx(full, abs=1e-9)


def test_separable_demands_sum():
    # far-apart center neighborhoods decompose the matching
    weights = np.array([
        [1.0, 100.0],
        [2.0, 100.0],
        [100.0, 3.0],
        [100.0, 4.0],
    ])
    both = solve_bmatching(make_problem(weights, [2, 2])).total_weight
    first = solve_bmatching(make_problem(weights, [2, 0])).total_weight
    second = solve_bmatching(make_problem(weights, [0, 2])).total_weight
    assert both == pytest.approx(first + second, abs=1e-9)


def test_deterministic_output():
    rng = np.random.default_rng(46)
    weights = rng.uniform(0, 5, size=(6, 2))
    prob = make_problem(weights, [2, 1])
    a = solve_bmatching(prob)
    b = solve_bmatching(prob)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_exactness_property(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, labelled=bool(rng.integers(0, 2)),
                          max_left=6, max_right=3)
    expected = brute_bmatching(prob.weights, prob.demands, prob.left_labels,
                               prob.label_demands)
    if expected is None:
        with pytest.raises(BMatchingInfeasible):
            solve_bmatching(prob)
    else:
        sol = solve_bmatching(prob)
        assert sol.total_weight == pytest.approx(expected, abs=1e-9)
        # the matches are consistent with the reported weight
        recomputed = sum(float(prob.weights[u, j])
                         for u, j in zip(sol.rows, sol.cols))
        assert recomputed == pytest.approx(sol.total_weight, abs=1e-9)


def outcome(solve, prob):
    try:
        return solve(prob)
    except BMatchingInfeasible:
        return None


def over_demanded(prob):
    """The problem with one more unit of demand than it has left vertices."""
    extra = len(prob.weights) + 1 - prob.total_demand
    label_demands = prob.label_demands
    if prob.labelled:
        first = list(label_demands[0])
        first[prob.left_labels[0]] += extra
        label_demands = (tuple(first),) + label_demands[1:]
    return BMatchingProblem(prob.weights,
                            (prob.demands[0] + extra,) + prob.demands[1:],
                            prob.left_labels, label_demands)


@pytest.mark.parametrize("labelled", [False, True])
def test_matches_ssp_reference(labelled):
    # distinct random weights make the optimal matching unique, so both
    # engines must pick the same edges and sum them in the same order
    rng = np.random.default_rng(47 + labelled)
    feasible = infeasible = 0
    for _ in range(200):
        prob = random_problem(rng, labelled=labelled, max_left=14,
                              max_right=4)
        _, pruned = prune_left(prob, int(rng.integers(0, 4)))
        for p in (prob, pruned, over_demanded(prob)):
            got, want = outcome(solve_bmatching, p), outcome(ssp_bmatching, p)
            if want is None:
                assert got is None
                infeasible += 1
                continue
            feasible += 1
            assert got.rows == want.rows and got.cols == want.cols
            assert got.total_weight.hex() == want.total_weight.hex()
    assert feasible > 250 and infeasible >= 200


def test_equal_weights_take_lowest_free_positions():
    # the shape of an integer-distance (Ulam) tie: six clients at 9, one at 0
    prob = make_problem([[9.0]] * 6 + [[0.0]], [2])
    assert solve_bmatching(prob).rows == (0, 6)
    # labels b and a as codes 1 and 0
    labelled = make_problem([[9.0, 4.0]] * 6 + [[0.0, 4.0]], [2, 2],
                            (1, 0, 1, 0, 1, 0, 0), ((1, 1), (2, 0)))
    assert edges(solve_bmatching(labelled)) == ((0, 0), (1, 1), (3, 1),
                                                (6, 0))


def test_ties_resolved_to_lowest_positions_random():
    rng = np.random.default_rng(48)
    for _ in range(300):
        prob = random_problem(rng, labelled=bool(rng.integers(0, 2)),
                              max_left=12, max_right=4)
        prob = make_problem(np.floor(prob.weights / 3), prob.demands,
                            prob.left_labels, prob.label_demands)
        try:
            sol = solve_bmatching(prob)
        except BMatchingInfeasible:
            continue
        assert sol.total_weight == ssp_bmatching(prob).total_weight
        labels = prob.left_labels or (None,) * len(prob.weights)
        for u, j in edges(sol):
            assert not any(v < u and v not in sol.rows
                           and labels[v] == labels[u]
                           and prob.weights[v, j] == prob.weights[u, j]
                           for v in range(len(prob.weights)))


def sorted_keep(prob, keep_count, excluded=()):
    """Positions kept per right vertex (and label) by a plain sort on
    (weight, position) of the left vertices outside ``excluded``."""
    keep = set()
    labels = prob.left_labels or (None,) * len(prob.weights)
    for j in range(len(prob.demands)):
        for lab in set(labels):
            members = [u for u in range(len(prob.weights))
                       if labels[u] == lab and u not in excluded]
            members.sort(key=lambda u: (prob.weights[u, j], u))
            keep.update(members[:keep_count])
    return sorted(keep)


@pytest.mark.parametrize("labelled", [False, True])
def test_prune_rule_matches_sort(labelled):
    # integer weights tie often, so the position tie-break decides
    rng = np.random.default_rng(48 + labelled)
    pruned = 0
    for _ in range(150):
        prob = random_problem(rng, labelled=labelled, max_left=12,
                              max_right=4)
        prob = make_problem(np.floor(prob.weights / 3), prob.demands,
                            prob.left_labels, prob.label_demands)
        m = int(rng.integers(0, 4))
        keep_count = max(m, prob.total_demand)
        got_kept, got = prune_left(prob, m)
        if len(prob.weights) <= keep_count:
            assert got is prob and got_kept == list(range(len(prob.weights)))
            continue
        kept = sorted_keep(prob, keep_count)
        pruned += len(kept) < len(prob.weights)
        assert got_kept == kept
        assert got.weights.tobytes() == prob.weights[kept].tobytes()
        assert got.left_labels == (None if not labelled else
                                   tuple(prob.left_labels[u] for u in kept))
        excluded = set(int(u) for u in rng.choice(
            len(prob.weights),
            size=min(len(prob.weights), int(rng.integers(0, 3))),
            replace=False))
        assert select_nearest(nearest_orders(prob.weights, prob.left_labels),
                              keep_count, excluded) == sorted_keep(
                                  prob, keep_count, excluded)
    assert pruned >= 30
