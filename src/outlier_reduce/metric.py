"""Metric spaces and powered-distance primitives.

Three metric families are supported:

* ``euclidean`` -- points are real vectors of a fixed dimension,
* ``matrix``    -- an explicit n x n distance matrix over the ground set,
* ``ulam``      -- points are permutations of {1..perm_len}; the distance is
  the minimum number of single-element move operations (delete one element,
  reinsert it anywhere), computed as perm_len minus the length of the longest
  increasing subsequence of one permutation relabelled through the other.

Every space carries a power exponent z in {1, 2}. The powered distance
D^z is what all cost computations use. A space is immutable after
construction and precomputes the full pairwise distance table, so all
lookups are O(1) and concurrent readers are safe.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "MetricSpace",
    "euclidean_space",
    "matrix_space",
    "ulam_space",
    "matrix_space_from_csv",
    "ulam_space_from_file",
    "ulam_distance",
    "distance",
    "powered_distance",
    "point_to_set",
]

# Absolute tolerance for cost comparisons across the package.
COST_ATOL = 1e-9
EUCLIDEAN_BLOCK_ELEMENTS = 1 << 20


def _lis_length(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for x in seq:
        i = bisect.bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def ulam_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Move-operation edit distance between two permutations of {1..n}.

    Equals n minus the LIS length of p relabelled by positions in q
    (i.e. of the composition q^{-1} o p).
    """
    n = len(p)
    if len(q) != n:
        raise ValueError(f"permutation length mismatch: {n} vs {len(q)}")
    expected = set(range(1, n + 1))
    if set(p) != expected or set(q) != expected:
        raise ValueError("inputs must be permutations of {1..n}")
    pos_in_q = [0] * (n + 1)
    for i, v in enumerate(q):
        pos_in_q[v] = i
    return n - _lis_length([pos_in_q[v] for v in p])


class MetricSpace:
    """A finite metric space over a ground-set table, with power z in {1, 2}.

    Points are referenced by their integer index into the ground set
    (a "PointRef"). Use the ``euclidean_space`` / ``matrix_space`` /
    ``ulam_space`` constructors rather than instantiating directly.
    """

    def __init__(self, kind: str, z: int, dist: np.ndarray, *,
                 coords: np.ndarray | None = None,
                 perms: tuple[tuple[int, ...], ...] | None = None,
                 dim: int | None = None,
                 perm_len: int | None = None):
        if z not in (1, 2):
            raise ValueError(f"z must be 1 or 2, got {z}")
        self.kind = kind
        self.z = z
        self.coords = coords
        self.perms = perms
        self.dim = dim
        self.perm_len = perm_len
        self._dist = dist
        self._pow = dist if z == 1 else dist ** 2
        for arr in (self._dist, self._pow, coords):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def size(self) -> int:
        return self._dist.shape[0]

    def _check_ref(self, a: int) -> None:
        if not (0 <= a < self.size):
            raise IndexError(f"point ref {a} out of range [0, {self.size})")

    def distance(self, a: int, b: int) -> float:
        self._check_ref(a)
        self._check_ref(b)
        return float(self._dist[a, b])

    def powered(self, a: int, b: int) -> float:
        self._check_ref(a)
        self._check_ref(b)
        return float(self._pow[a, b])

    def powered_to_set(self, x: int, refs: Iterable[int]) -> tuple[float, int]:
        """Minimum powered distance from x to a nonempty set, with the achieving
        member. Ties break toward the lowest ground-set index."""
        members = sorted(set(refs))
        if not members:
            raise ValueError("point_to_set requires a nonempty set")
        self._check_ref(x)
        row = self._pow[x, members]
        i = int(np.argmin(row))  # argmin returns the first minimum: lowest index
        return float(row[i]), members[i]

    def powered_rows(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Read-only powered-distance block for the given refs."""
        return self._pow[np.ix_(list(rows), list(cols))]

    def validate_triangle(self, samples: int = 200, seed: int = 0,
                          atol: float = COST_ATOL) -> None:
        """Spot-check D(a,c) <= D(a,b) + D(b,c) on sampled triples.

        Full validation is cubic in the ground-set size, so matrix spaces
        defer it to this on-demand check.
        """
        rng = np.random.default_rng(seed)
        n = self.size
        for _ in range(samples):
            a, b, c = rng.integers(0, n, size=3)
            if self._dist[a, c] > self._dist[a, b] + self._dist[b, c] + atol:
                raise ValueError(
                    f"triangle inequality violated on triple ({a}, {b}, {c})")


def euclidean_space(coords: Sequence[Sequence[float]], z: int, dim: int) -> MetricSpace:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    # rows in blocks, so the n x rows x dim temporary stays near 1 M elements
    n = arr.shape[0]
    dist = np.empty((n, n))
    rows = max(1, EUCLIDEAN_BLOCK_ELEMENTS // max(n * dim, 1))
    for lo in range(0, n, rows):
        diff = arr[lo:lo + rows, None, :] - arr[None, :, :]
        np.square(diff, out=diff)
        np.sqrt(diff.sum(axis=2), out=dist[lo:lo + rows])
    return MetricSpace("euclidean", z, dist, coords=arr, dim=dim)


def matrix_space(matrix: Sequence[Sequence[float]], z: int) -> MetricSpace:
    dmat = np.asarray(matrix, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dmat.shape}")
    if not np.isfinite(dmat).all():
        raise ValueError("distance matrix entries must be finite")
    if (dmat < 0).any():
        raise ValueError("distance matrix entries must be nonnegative")
    if not np.allclose(np.diag(dmat), 0.0, atol=COST_ATOL):
        raise ValueError("distance matrix diagonal must be zero")
    if not np.allclose(dmat, dmat.T, atol=COST_ATOL):
        raise ValueError("distance matrix must be symmetric")
    return MetricSpace("matrix", z, dmat)


def ulam_space(perms: Sequence[Sequence[int]], z: int, perm_len: int) -> MetricSpace:
    table = []
    for p in perms:
        t = tuple(int(v) for v in p)
        if len(t) != perm_len or set(t) != set(range(1, perm_len + 1)):
            raise ValueError(f"not a permutation of 1..{perm_len}: {p}")
        table.append(t)
    n = len(table)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = ulam_distance(table[i], table[j])
    return MetricSpace("ulam", z, dist, perms=tuple(table), perm_len=perm_len)


def matrix_space_from_csv(path: str, z: int) -> MetricSpace:
    """Load an n x n distance matrix from CSV (n rows of n reals)."""
    dmat = np.loadtxt(path, delimiter=",", ndmin=2)
    return matrix_space(dmat, z)


def ulam_space_from_file(path: str, z: int) -> MetricSpace:
    """Load permutations, one per line, space-separated 1-based integers."""
    perms = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                perms.append(tuple(int(tok) for tok in line.split()))
    if not perms:
        raise ValueError(f"no permutations in {path}")
    return ulam_space(perms, z, perm_len=len(perms[0]))


def distance(space: MetricSpace, a: int, b: int) -> float:
    return space.distance(a, b)


def powered_distance(space: MetricSpace, a: int, b: int) -> float:
    return space.powered(a, b)


def point_to_set(space: MetricSpace, x: int, refs: Iterable[int]) -> tuple[float, int]:
    return space.powered_to_set(x, refs)
