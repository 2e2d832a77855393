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
construction and keeps only its input: the coordinates, the permutations
or the given matrix. Distances are computed on demand for the row x column
blocks that callers ask for, so no n x n table is built for Euclidean or
Ulam points, and the clustering hot paths read only client x facility
blocks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "MetricSpace",
    "euclidean_space",
    "matrix_space",
    "ulam_space",
    "ulam_distance",
]

# Absolute tolerance of the matrix and triangle input checks.
COST_ATOL = 1e-9
# Elements in the temporaries of one row slice of a computed block.
BLOCK_ELEMENTS = 1 << 20


def _lis_lengths(seqs: np.ndarray) -> np.ndarray:
    """Longest increasing subsequence length of each row of distinct values
    in 0..L-1, by patience sorting all rows at once (L marks an empty pile)."""
    count, length = seqs.shape
    tails = np.full((count, length), length)
    every = np.arange(count)
    for t in range(length):
        x = seqs[:, t]
        tails[every, (tails < x[:, None]).sum(axis=1)] = x
    return (tails < length).sum(axis=1)


def ulam_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Move-operation edit distance between two permutations of {1..n}.

    Equals n minus the LIS length of p relabelled by positions in q
    (i.e. of the composition q^{-1} o p).
    """
    return int(ulam_space([p, q], 1, len(p)).distance(0, 1))


class MetricSpace:
    """A finite metric space over a ground-set table, with power z in {1, 2}.

    Points are referenced by their integer index into the ground set
    (a "PointRef"). Use the ``euclidean_space`` / ``matrix_space`` /
    ``ulam_space`` constructors rather than instantiating directly.
    """

    def __init__(self, kind: str, z: int, *,
                 matrix: np.ndarray | None = None,
                 coords: np.ndarray | None = None,
                 perms: np.ndarray | None = None,
                 dim: int | None = None,
                 perm_len: int | None = None):
        if z not in (1, 2):
            raise ValueError(f"z must be 1 or 2, got {z}")
        self.kind = kind
        self.z = z
        self.matrix = matrix
        self.coords = coords
        self.perms = perms
        self.dim = dim
        self.perm_len = perm_len
        for arr in (matrix, coords, perms):
            if arr is not None:
                arr.flags.writeable = False
                self.size = arr.shape[0]

    def _check_ref(self, *refs: int) -> None:
        for a in refs:
            if not (0 <= a < self.size):
                raise IndexError(f"point ref {a} out of range [0, {self.size})")

    def _block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """D on rows x cols, computed from the stored points in row slices
        whose temporaries hold about BLOCK_ELEMENTS elements each."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if self.kind == "matrix":
            return self.matrix[np.ix_(rows, cols)]
        out = np.empty((len(rows), len(cols)))
        width = self.dim if self.kind == "euclidean" else self.perm_len
        step = max(1, BLOCK_ELEMENTS // max(len(cols) * width, 1))
        if self.kind == "euclidean":
            right = self.coords[cols]
            for lo in range(0, len(rows), step):
                diff = self.coords[rows[lo:lo + step], None, :] - right[None, :, :]
                np.square(diff, out=diff)
                np.sqrt(diff.sum(axis=2), out=out[lo:lo + step])
        else:
            # position of each value in each column permutation
            where = np.argsort(self.perms[cols], axis=1)
            for lo in range(0, len(rows), step):
                part = rows[lo:lo + step]
                relabelled = where[:, self.perms[part] - 1]  # cols x part x L
                lis = _lis_lengths(relabelled.reshape(-1, self.perm_len))
                out[lo:lo + step] = self.perm_len - lis.reshape(len(cols), len(part)).T
        return out

    def distance(self, a: int, b: int) -> float:
        self._check_ref(a, b)
        return float(self._block([a], [b])[0, 0])

    def powered(self, a: int, b: int) -> float:
        self._check_ref(a, b)
        return float(self.powered_rows([a], [b])[0, 0])

    def powered_to_set(self, x: int, refs: Iterable[int]) -> tuple[float, int]:
        """Minimum powered distance from x to a nonempty set, with the achieving
        member. Ties break toward the lowest ground-set index."""
        members = sorted(set(refs))
        if not members:
            raise ValueError("powered_to_set requires a nonempty set")
        self._check_ref(x)
        row = self.powered_rows([x], members)[0]
        i = int(np.argmin(row))  # argmin returns the first minimum: lowest index
        return float(row[i]), members[i]

    def powered_rows(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Powered-distance block D^z for the given refs, as a new array."""
        block = self._block(rows, cols)
        return block if self.z == 1 else block ** 2

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
            d = self._block([a, b], [b, c])  # D(a,b) D(a,c) / D(b,b) D(b,c)
            if d[0, 1] > d[0, 0] + d[1, 1] + atol:
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
    return MetricSpace("euclidean", z, coords=arr, dim=dim)


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
    return MetricSpace("matrix", z, matrix=dmat)


def ulam_space(perms: Sequence[Sequence[int]], z: int, perm_len: int) -> MetricSpace:
    table = []
    for p in perms:
        t = tuple(int(v) for v in p)
        if len(t) != perm_len or set(t) != set(range(1, perm_len + 1)):
            raise ValueError(f"not a permutation of 1..{perm_len}: {p}")
        table.append(t)
    arr = np.array(table, dtype=np.intp).reshape(len(table), perm_len)
    return MetricSpace("ulam", z, perms=arr, perm_len=perm_len)

