import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outlier_reduce import metric
from outlier_reduce.metric import (euclidean_space, matrix_space,
                                   ulam_distance, ulam_space)
from outlier_reduce.oracle import ulam_bfs

from helpers import reference_powered_table


def test_euclidean_1d_distance():
    space = euclidean_space([[0.0], [3.0]], z=1, dim=1)
    assert space.distance(0, 1) == 3.0


def test_powered_distance_squares():
    space = euclidean_space([[0.0], [3.0]], z=2, dim=1)
    assert space.powered(0, 1) == 9.0
    assert space.distance(0, 1) == 3.0


def test_powered_z1_equals_distance():
    space = euclidean_space([[1.5], [-2.0], [4.0]], z=1, dim=1)
    for a in range(3):
        for b in range(3):
            assert space.powered(a, b) == space.distance(a, b)


def test_matrix_powered():
    space = matrix_space([[0.0, 2.0], [2.0, 0.0]], z=2)
    assert space.powered(0, 1) == 4.0


def test_matrix_validation_errors():
    with pytest.raises(ValueError):
        matrix_space([[0.0, 1.0], [2.0, 0.0]], z=1)  # asymmetric
    with pytest.raises(ValueError):
        matrix_space([[1.0, 1.0], [1.0, 0.0]], z=1)  # nonzero diagonal
    with pytest.raises(ValueError):
        matrix_space([[0.0, -1.0], [-1.0, 0.0]], z=1)


def test_triangle_spot_check_catches_violation():
    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    space = matrix_space(bad, z=1)  # loads; triangle checked on demand
    with pytest.raises(ValueError):
        space.validate_triangle(samples=500, seed=0)


def test_ulam_examples():
    assert ulam_distance((1, 2, 3), (1, 2, 3)) == 0
    assert ulam_distance((1, 2, 3), (3, 1, 2)) == 1
    assert ulam_distance((1, 2, 3), (3, 2, 1)) == 2


def test_ulam_input_validation():
    with pytest.raises(ValueError):
        ulam_distance((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        ulam_distance((1, 1, 3), (1, 2, 3))


def test_ulam_matches_bfs_exhaustive_len4():
    perms = list(itertools.permutations(range(1, 5)))
    for p in perms:
        for q in perms:
            assert ulam_distance(p, q) == ulam_bfs(p, q)


def test_point_to_set_member():
    space = euclidean_space([[0.0], [5.0], [9.0]], z=1, dim=1)
    assert space.powered_to_set(1, {0, 1, 2}) == (0.0, 1)


def test_point_to_set_nearest():
    space = euclidean_space([[5.0], [0.0], [4.0], [9.0]], z=1, dim=1)
    dist, member = space.powered_to_set(0, {1, 2, 3})
    assert dist == 1.0 and member == 2


def test_point_to_set_tie_breaks_lowest_index():
    space = euclidean_space([[5.0], [3.0], [7.0]], z=2, dim=1)
    dist, member = space.powered_to_set(0, {1, 2})
    assert dist == 4.0 and member == 1


def test_point_to_set_empty_raises():
    space = euclidean_space([[0.0]], z=1, dim=1)
    with pytest.raises(ValueError):
        space.powered_to_set(0, set())


@st.composite
def euclidean_spaces(draw):
    z = draw(st.sampled_from([1, 2]))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    coords = draw(st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=dim,
                 max_size=dim),
        min_size=n, max_size=n))
    return euclidean_space(coords, z=z, dim=dim)


@settings(max_examples=60, deadline=None)
@given(euclidean_spaces(), st.data())
def test_symmetry_and_identity(space, data):
    a = data.draw(st.integers(0, space.size - 1))
    b = data.draw(st.integers(0, space.size - 1))
    assert space.distance(a, b) == space.distance(b, a)
    assert space.distance(a, a) == 0.0


@settings(max_examples=60, deadline=None)
@given(euclidean_spaces(), st.data())
def test_triangle_inequality(space, data):
    a = data.draw(st.integers(0, space.size - 1))
    b = data.draw(st.integers(0, space.size - 1))
    c = data.draw(st.integers(0, space.size - 1))
    assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c) + 1e-9


@settings(max_examples=60, deadline=None)
@given(euclidean_spaces(), st.data())
def test_approximate_triangle_inequality_squared(space, data):
    # D^2(a, c) <= 2 (D^2(a, b) + D^2(b, c)) regardless of the space's z
    a = data.draw(st.integers(0, space.size - 1))
    b = data.draw(st.integers(0, space.size - 1))
    c = data.draw(st.integers(0, space.size - 1))
    lhs = space.distance(a, c) ** 2
    rhs = 2.0 * (space.distance(a, b) ** 2 + space.distance(b, c) ** 2)
    assert lhs <= rhs + 1e-6


def test_ulam_space_table():
    space = ulam_space([(1, 2, 3), (3, 1, 2), (3, 2, 1)], z=1, perm_len=3)
    assert space.distance(0, 1) == 1.0
    assert space.distance(0, 2) == 2.0
    assert space.distance(1, 1) == 0.0
    with pytest.raises(ValueError):
        ulam_space([(1, 2)], z=1, perm_len=3)


@pytest.mark.parametrize("dim,n", [(1, 1100), (2, 800), (9, 400)])
def test_euclidean_blocked_build_matches_broadcast(dim, n, monkeypatch):
    # the default block holds fewer than n rows at these sizes; a small one
    # leaves a short last block
    arr = np.random.default_rng(dim).normal(scale=50.0, size=(n, dim))
    diff = arr[:, None, :] - arr[None, :, :]
    expect = np.sqrt((diff ** 2).sum(axis=2))
    for block in (None, 37 * n * dim):
        if block is not None:
            monkeypatch.setattr(metric, "BLOCK_ELEMENTS", block)
        space = euclidean_space(arr, z=1, dim=dim)
        assert space.powered_rows(range(n), range(n)).tobytes() == expect.tobytes()


def _random_space(kind, z, rng):
    if kind == "matrix":
        pts = rng.normal(scale=10.0, size=(40, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        return matrix_space(np.sqrt((diff ** 2).sum(axis=2)), z)
    if kind == "ulam":
        perms = {tuple(rng.permutation(7) + 1) for _ in range(60)}
        return ulam_space(sorted(perms), z, perm_len=7)
    dim = int(kind.removeprefix("euclidean"))
    return euclidean_space(rng.normal(scale=50.0, size=(60, dim)), z, dim)


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("kind", ["euclidean1", "euclidean2", "euclidean9",
                                  "matrix", "ulam"])
def test_powered_rows_match_reference_table(kind, z, monkeypatch):
    # random blocks, with repeated and empty row and column lists, against
    # the full table, bit for bit; the small block slices Euclidean and
    # Ulam rows one or two at a time
    rng = np.random.default_rng(len(kind) * 10 + z)
    space = _random_space(kind, z, rng)
    table = reference_powered_table(space)
    n = space.size
    for block in (None, 11):
        if block is not None:
            monkeypatch.setattr(metric, "BLOCK_ELEMENTS", block)
        for rows, cols in [(range(n), range(n)), ([], [0]), ([3], [])] + [
                (rng.integers(0, n, rng.integers(1, 2 * n)),
                 rng.integers(0, n, rng.integers(1, 8))) for _ in range(6)]:
            got = space.powered_rows(rows, cols)
            assert got.tobytes() == table[np.ix_(rows, cols)].tobytes()
        a, b = (int(v) for v in rng.integers(0, n, 2))
        assert space.powered(a, b) == table[a, b]
        assert space.distance(a, b) ** z == pytest.approx(table[a, b])
        space.validate_triangle(samples=50, seed=z)


def test_non_finite_input_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            euclidean_space([[0.0, 1.0], [bad, 2.0]], z=1, dim=2)
        with pytest.raises(ValueError, match="finite"):
            matrix_space([[0.0, bad], [bad, 0.0]], z=1)
