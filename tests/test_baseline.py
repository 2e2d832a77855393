import itertools

import numpy as np
import pytest

from outlier_reduce.baseline import anchor_cost_of, solve_unconstrained
from outlier_reduce.oracle import exact_outlier_opt
from outlier_reduce.reduction import default_beta
from outlier_reduce.instance import instance_from_dict
from helpers import fref_of, line_instance, reference_solve_unconstrained


def exhaustive_anchor_opt(inst, p):
    return min(anchor_cost_of(inst, c)
               for c in itertools.combinations(inst.F, p))


def test_single_point():
    inst = line_instance([0.0], k=1)
    anchors = solve_unconstrained(inst, 1, rng_seed=0)
    assert anchors.centers == (inst.F[0],)
    assert anchors.anchor_cost == 0.0


def test_exact_cover_two_points():
    inst = line_instance([0, 100], k=1)
    anchors = solve_unconstrained(inst, 2, rng_seed=0)
    assert anchors.anchor_cost == 0.0
    assert len(set(anchors.centers)) == 2


def test_two_pairs_reaches_optimum():
    inst = line_instance([0, 1, 10, 11], k=2)
    for seed in range(5):
        anchors = solve_unconstrained(inst, 2, rng_seed=seed)
        assert anchors.anchor_cost == 2.0


def test_too_many_centers_raises():
    inst = line_instance([0, 1], k=1)
    with pytest.raises(ValueError):
        solve_unconstrained(inst, 3, rng_seed=0)


def test_anchor_cost_of_cover():
    inst = line_instance([0, 1, 10], k=1)
    assert anchor_cost_of(inst, inst.X) == 0.0


@pytest.mark.parametrize("z", [1, 2])
def test_anchor_cost_examples(z):
    inst = line_instance([0, 1, 10], k=1, z=z)
    c = {fref_of(inst, 0), fref_of(inst, 10)}
    assert anchor_cost_of(inst, c) == 1.0


def test_anchor_cost_empty_raises():
    inst = line_instance([0, 1], k=1)
    with pytest.raises(ValueError):
        anchor_cost_of(inst, set())


def test_deterministic_given_seed():
    rng = np.random.default_rng(1)
    xs = sorted(rng.uniform(0, 100, size=10).tolist())
    inst = line_instance(xs, k=2)
    a = solve_unconstrained(inst, 3, rng_seed=42)
    b = solve_unconstrained(inst, 3, rng_seed=42)
    assert a == b


@pytest.mark.parametrize("z", [1, 2])
def test_constant_factor_vs_exhaustive(z):
    # local-search anchors stay within the configured factor of the true
    # (k+m)-subset optimum on random lines
    beta = default_beta(z)
    rng = np.random.default_rng(7)
    for trial in range(20):
        xs = np.round(rng.uniform(0, 100, size=9), 4)
        inst = line_instance(sorted(set(xs.tolist())), k=2, z=z)
        p = min(3, len(inst.F))
        anchors = solve_unconstrained(inst, p, rng_seed=trial)
        opt = exhaustive_anchor_opt(inst, p)
        assert anchors.anchor_cost <= beta * opt + 1e-9


@pytest.mark.parametrize("z", [1, 2])
def test_anchor_cost_bounded_by_beta_times_outlier_opt(z):
    # the lower-bound chain behind the whole reduction: the (k+m)-anchor
    # cost never exceeds beta times the outlier-clustering optimum
    beta = default_beta(z)
    rng = np.random.default_rng(13)
    for trial in range(15):
        base = rng.uniform(0, 10, size=7)
        far = rng.uniform(500, 600, size=1)
        xs = np.round(np.concatenate([base, far]), 4)
        inst = line_instance(sorted(set(xs.tolist())), k=2, m=1, z=z)
        anchors = solve_unconstrained(inst, min(3, len(inst.F)),
                                      rng_seed=trial)
        opt, _ = exact_outlier_opt(inst)
        assert anchors.anchor_cost <= beta * opt + 1e-9


def anchor_instances(rng):
    """Lines with integer (tie-heavy) and real coordinates, planes with
    more clients than the seed sample, shared and separate facilities."""
    for trial in range(12):
        xs = (rng.integers(0, 15, size=10).astype(float) if trial % 2
              else rng.uniform(0, 100, size=10).round(4))
        xs = sorted(set(xs.tolist()))
        fs = None if trial % 3 else sorted(set(
            rng.uniform(0, 100, size=6).round(4).tolist()))
        yield line_instance(xs, fs, k=2, z=1 + trial % 2)
    for z in (1, 2):
        pts = rng.uniform(0, 50, size=(45, 2)).round(5).tolist()
        yield instance_from_dict({
            "metric": {"kind": "euclidean", "dim": 2}, "z": z,
            "points": pts, "facilities": pts[::3], "k": 3, "m": 2,
            "constraint": {"kind": "unconstrained"}})


def test_anchors_match_reference_loop():
    # one bound pass per sweep picks the swap the per-swap loop picks, and
    # the shared D^z seeding draws the same centers: equal anchors and
    # anchor-cost bits
    rng = np.random.default_rng(17)
    swept = 0
    for inst in anchor_instances(rng):
        for num_centers in range(1, min(5, len(inst.F)) + 1):
            for seed in (0, 1, 9):
                got = solve_unconstrained(inst, num_centers, seed)
                want = reference_solve_unconstrained(inst, num_centers, seed)
                assert got.centers == want.centers
                assert got.anchor_cost.hex() == want.anchor_cost.hex()
                swept += num_centers < len(inst.F)
    assert swept >= 150
