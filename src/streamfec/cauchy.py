"""Cauchy matrices over GF(2^e), and square solves for their subsystems.

Every square submatrix of a Cauchy matrix is invertible. That is the whole
point of using one as a parity generator: any square subset of parity
equations can be solved for any equally sized subset of unknowns. The
solve runs on the elimination core in `streamfec.linear`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf import GF
from .linear import IncrementalDecoder, InconsistentSystemError


class SingularMatrixError(Exception):
    """A square system had no unique solution; signals a construction bug."""


@dataclass(frozen=True)
class CauchyMatrix:
    """dim x dim matrix with entry(i, j) = 1 / (x_i + y_j).

    Invariants: all x points distinct, all y points distinct, and the two
    point sets disjoint, so every denominator is nonzero (addition is XOR).
    """

    field: GF
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("point sets must have equal size")
        if len(set(self.xs)) != len(self.xs) or len(set(self.ys)) != len(self.ys):
            raise ValueError("points within a set must be distinct")
        if set(self.xs) & set(self.ys):
            raise ValueError("x and y point sets must be disjoint")

    @property
    def dim(self) -> int:
        return len(self.xs)

    def entry(self, i: int, j: int) -> int:
        return self.field.inv(self.xs[i] ^ self.ys[j])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        for idx in (*rows, *cols):
            if not 0 <= idx < self.dim:
                raise IndexError(f"index {idx} outside [0, {self.dim - 1}]")
        return [[self.entry(i, j) for j in cols] for i in rows]

    def combine(self, pairs: Iterable[tuple[int, int]], cols: Sequence[int]) -> list[int]:
        """Sparse row vector times the matrix, restricted to `cols`.

        `pairs` holds (row_index, value) entries; zero values are skipped.
        """
        f = self.field
        out = [0] * len(cols)
        for r, val in pairs:
            if val == 0:
                continue
            for ci, c in enumerate(cols):
                out[ci] ^= f.mul(val, self.entry(r, c))
        return out


def build_cauchy(dim: int, fld: GF, seed: int = 0) -> CauchyMatrix:
    """Deterministic Cauchy matrix on 2*dim distinct points drawn by `seed`."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if 2 * dim > fld.order:
        raise ValueError(
            f"field of order {fld.order} cannot host {2 * dim} distinct points"
        )
    pts = random.Random(seed).sample(range(fld.order), 2 * dim)
    return CauchyMatrix(fld, tuple(pts[:dim]), tuple(pts[dim:]))


def vec_mat(fld: GF, vec: Sequence[int], mat: Sequence[Sequence[int]]) -> list[int]:
    """Row vector times matrix."""
    if len(vec) != len(mat):
        raise ValueError(f"shape mismatch: vector {len(vec)} vs {len(mat)} rows")
    cols = len(mat[0]) if mat else 0
    out = [0] * cols
    for v, row in zip(vec, mat):
        if v == 0:
            continue
        for j in range(cols):
            out[j] ^= fld.mul(v, row[j])
    return out


def solve(fld: GF, mat: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int]:
    """Solve mat @ x = rhs for a square nonsingular `mat`.

    Raises SingularMatrixError when `mat` is singular, whether or not the
    system happens to be consistent.
    """
    n = len(mat)
    if any(len(row) != n for row in mat) or len(rhs) != n:
        raise ValueError("solve needs a square system")
    dec = IncrementalDecoder(fld, n)
    try:
        independent = all(dec.add_equation(row, v) for row, v in zip(mat, rhs))
    except InconsistentSystemError as exc:
        raise SingularMatrixError("singular system with inconsistent rows") from exc
    if not independent:
        raise SingularMatrixError("a row depends on the rows before it")
    values = dec.determined()
    return [values[j] for j in range(n)]
