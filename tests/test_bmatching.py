import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outlier_reduce.bmatching import (BMatchingInfeasible, BMatchingProblem,
                                      nearest_orders, prune_left,
                                      select_nearest, solve_bmatching)
from helpers import brute_bmatching, random_bmatching_problem, ssp_bmatching


def make_problem(weights, demands, left_labels=None, label_demands=None):
    weights = np.asarray(weights, dtype=float)
    nl, nr = weights.shape
    return BMatchingProblem(left=tuple(range(nl)), right=tuple(range(nr)),
                            weights=weights, demands=tuple(demands),
                            left_labels=left_labels,
                            label_demands=label_demands)


def random_problem(rng, labelled=False, max_left=8, max_right=3):
    return random_bmatching_problem(rng, labelled=labelled, max_left=max_left,
                                    max_right=max_right)


def test_all_zero_demands():
    prob = make_problem([[1.0, 2.0], [3.0, 4.0]], [0, 0])
    sol = solve_bmatching(prob)
    assert sol.edges == () and sol.total_weight == 0.0


def test_single_center_picks_cheapest():
    prob = make_problem([[3.0], [5.0]], [1])
    sol = solve_bmatching(prob)
    assert sol.total_weight == 3.0
    assert sol.matched_left == {0}


def test_two_centers_matches_brute_force():
    rng = np.random.default_rng(0)
    weights = rng.uniform(0, 10, size=(3, 2))
    prob = make_problem(weights, [1, 1])
    sol = solve_bmatching(prob)
    assert sol.total_weight == pytest.approx(
        brute_bmatching(weights, [1, 1]), abs=1e-9)


def test_labelled_respects_labels():
    # center needs one red and one blue; the two cheap clients are both red
    weights = np.array([[1.0], [2.0], [5.0]])
    prob = make_problem(weights, [2], ("red", "red", "blue"),
                        ({"red": 1, "blue": 1},))
    sol = solve_bmatching(prob)
    assert sol.total_weight == pytest.approx(6.0)
    assert sol.matched_left == {0, 2}


def test_infeasible_total_demand():
    prob = make_problem([[1.0], [2.0]], [3])
    with pytest.raises(BMatchingInfeasible, match="total demand"):
        solve_bmatching(prob)


def test_infeasible_label_shortfall_names_the_label():
    prob = make_problem([[1.0], [2.0]], [2], ("red", "red"),
                        ({"red": 1, "blue": 1},))
    with pytest.raises(BMatchingInfeasible, match="blue"):
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
                                tuple("only" for _ in prob.left),
                                tuple({"only": t} for t in prob.demands))
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
    assert prune_left(prob, 2) is prob


def test_prune_keeps_nearest():
    prob = make_problem([[1.0], [2.0], [3.0], [4.0]], [1])
    pruned = prune_left(prob, 2)
    assert pruned.left == (0, 1)
    for t in (1, 2):
        full = solve_bmatching(make_problem(prob.weights, [t]))
        cut = solve_bmatching(prune_left(make_problem(prob.weights, [t]), 2))
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
        cut = solve_bmatching(prune_left(prob, m)).total_weight
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
        # the edge list is consistent with the reported weight
        recomputed = sum(float(prob.weights[u, prob.right.index(j)])
                         for u, j in sol.edges)
        assert recomputed == pytest.approx(sol.total_weight, abs=1e-9)


def outcome(solve, prob):
    try:
        return solve(prob)
    except BMatchingInfeasible:
        return None


def over_demanded(prob):
    """The problem with one more unit of demand than it has left vertices."""
    extra = len(prob.left) + 1 - prob.total_demand
    label_demands = prob.label_demands
    if prob.labelled:
        first = dict(label_demands[0])
        first[prob.left_labels[0]] = first.get(prob.left_labels[0], 0) + extra
        label_demands = (first,) + label_demands[1:]
    return BMatchingProblem(prob.left, prob.right, prob.weights,
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
        pruned = prune_left(prob, int(rng.integers(0, 4)))
        for p in (prob, pruned, over_demanded(prob)):
            got, want = outcome(solve_bmatching, p), outcome(ssp_bmatching, p)
            if want is None:
                assert got is None
                infeasible += 1
                continue
            feasible += 1
            assert got.edges == want.edges
            assert got.total_weight.hex() == want.total_weight.hex()
            assert got.matched_left == want.matched_left
    assert feasible > 250 and infeasible >= 200


def test_equal_weights_take_lowest_free_positions():
    # the shape of an integer-distance (Ulam) tie: six clients at 9, one at 0
    prob = make_problem([[9.0]] * 6 + [[0.0]], [2])
    assert solve_bmatching(prob).matched_left == {0, 6}
    labelled = make_problem([[9.0, 4.0]] * 6 + [[0.0, 4.0]], [2, 2],
                            ("b", "a", "b", "a", "b", "a", "a"),
                            ({"a": 1, "b": 1}, {"a": 2}))
    assert solve_bmatching(labelled).edges == ((0, 0), (1, 1), (3, 1), (6, 0))


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
        labels = prob.left_labels or (None,) * len(prob.left)
        for u, j in sol.edges:
            assert not any(v < u and v not in sol.matched_left
                           and labels[v] == labels[u]
                           and prob.weights[v, j] == prob.weights[u, j]
                           for v in range(len(prob.left)))


def sorted_keep(prob, keep_count, excluded=()):
    """Positions kept per right vertex (and label) by a plain sort on
    (weight, position) of the left vertices outside ``excluded``."""
    keep = set()
    labels = prob.left_labels or (None,) * len(prob.left)
    for j in range(len(prob.right)):
        for lab in set(labels):
            members = [u for u in range(len(prob.left))
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
        got = prune_left(prob, m)
        if len(prob.left) <= keep_count:
            assert got is prob
            continue
        kept = sorted_keep(prob, keep_count)
        pruned += len(kept) < len(prob.left)
        assert list(got.left) == kept  # left refs are the positions here
        assert got.weights.tobytes() == prob.weights[kept].tobytes()
        assert got.left_labels == (None if not labelled else
                                   tuple(prob.left_labels[u] for u in kept))
        excluded = set(int(u) for u in rng.choice(
            len(prob.left), size=min(len(prob.left), int(rng.integers(0, 3))),
            replace=False))
        assert select_nearest(nearest_orders(prob.weights, prob.left_labels),
                              keep_count, excluded) == sorted_keep(
                                  prob, keep_count, excluded)
    assert pruned >= 30
