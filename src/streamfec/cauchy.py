"""Cauchy matrices over GF(2^e), and square solves for their subsystems.

Every square submatrix of a Cauchy matrix is invertible. That is the whole
point of using one as a parity generator: any square subset of parity
equations can be solved for any equally sized subset of unknowns. Such a
submatrix is itself a Cauchy matrix, whose inverse has a closed form
(Schechter, 1959), so `CauchyMatrix.solve_combination` inverts `combine`
in O(n^2) without building the matrix. Both work in the log domain on the
field's tables, one antilog lookup per coefficient. The generic `solve`
runs on the elimination core in `streamfec.linear` and is kept as the
reference the closed form is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add
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

    def _check_indices(self, rows: Sequence[int], cols: Sequence[int]) -> None:
        for idx in (*rows, *cols):
            if not 0 <= idx < self.dim:
                raise IndexError(f"index {idx} outside [0, {self.dim - 1}]")

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        self._check_indices(rows, cols)
        return [[self.entry(i, j) for j in cols] for i in rows]

    def combine(self, pairs: Iterable[tuple[int, int]], cols: Sequence[int]) -> list[int]:
        """Sparse row vector times the matrix, restricted to `cols`.

        `pairs` holds (row_index, value) entries; zero values are skipped.
        """
        log = self.field.log
        span = self.field.order - 1
        terms = [(self.xs[r], span + log[val]) for r, val in pairs if val]
        return self._log_dot(terms, [self.ys[c] for c in cols])

    def solve_combination(
        self, rows: Sequence[int], cols: Sequence[int], rhs: Sequence[int]
    ) -> list[int]:
        """The x over `rows` with combine(zip(rows, x), cols) == rhs.

        The submatrix C[a][b] = 1 / (u_a + v_b), u = xs over rows and v = ys
        over cols, is Cauchy, so over GF(2^e)
        (C^-1)[b][a] = A_a * B_b / (u_a + v_b) with
        A_a = prod_k (u_a + v_k) / prod_{k != a} (u_a + u_k) and
        B_b = prod_k (u_k + v_b) / prod_{k != b} (v_b + v_k).
        Hence x_a = A_a * sum_b rhs_b * B_b / (u_a + v_b). A and B are sums
        of logs and each term is one antilog lookup: O(n^2), no matrix.

        Raises ValueError unless rows, cols and rhs have one length and the
        indices within rows and within cols are distinct, and IndexError
        for an index outside the matrix.
        """
        n = len(rows)
        if len(cols) != n or len(rhs) != n:
            raise ValueError(
                f"square system needed: {n} rows, {len(cols)} cols, {len(rhs)} values"
            )
        if len(set(rows)) != n or len(set(cols)) != n:
            raise ValueError("row and column indices must not repeat")
        self._check_indices(rows, cols)
        exp, log = self.field.exp, self.field.log
        span = self.field.order - 1
        us = [self.xs[r] for r in rows]
        vs = [self.ys[c] for c in cols]
        # one pass over log(u_a + v_b): row sums go to A, column sums to B
        log_a = []
        col_sums = [0] * n
        for u in us:
            row = [log[u ^ v] for v in vs]
            col_sums = list(map(add, col_sums, row))
            log_a.append((sum(row) - sum([log[u ^ w] for w in us if w != u])) % span)
        terms = [
            (v, span + (log[val] + cs - sum([log[v ^ w] for w in vs if w != v])) % span)
            for v, val, cs in zip(vs, rhs, col_sums)
            if val
        ]
        sums = self._log_dot(terms, us)
        return [exp[la + log[s]] if s else 0 for la, s in zip(log_a, sums)]

    def _log_dot(self, terms: list[tuple[int, int]], points: Sequence[int]) -> list[int]:
        """For each point z, the sum over (p, l) in `terms` of g^l / (p + z).

        Each l lies in [span, 2 * span), span = order - 1, so subtracting
        log(p + z) < span leaves an index inside the doubled antilog table,
        and every term is one lookup. p + z must never be 0.
        """
        exp, log = self.field.exp, self.field.log
        out = []
        for z in points:
            acc = 0
            for p, l in terms:
                acc ^= exp[l - log[p ^ z]]
            out.append(acc)
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
