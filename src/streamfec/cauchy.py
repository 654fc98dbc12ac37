"""Cauchy matrices over GF(2^e), and square solves for their subsystems.

Every square submatrix of a Cauchy matrix is invertible. That is the whole
point of using one as a parity generator: any square subset of parity
equations can be solved for any equally sized subset of unknowns. Such a
submatrix is itself a Cauchy matrix, whose inverse has a closed form
(Schechter, 1959), so `CauchyMatrix.solve_combination` inverts `combine`
in O(n^2) without building the matrix. Both work in the log domain on the
field's tables. `terms` turns a sparse row vector into (x point, log)
pairs once, and `combine` then costs one antilog lookup per coefficient
and column. The solve builds one n x n block of logs, reads each pair of
its points once (twice for a few points, where that is faster), and reads
the block again for its final product. The generic `solve` runs on the
elimination core in `streamfec.linear` and is kept as the reference the
closed form is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest
from operator import add, sub
from typing import Sequence

from .gf import GF
from .linear import IncrementalDecoder, InconsistentSystemError


# points from which `_pair_log_sums` reads each pair once; below it the
# triangle's fixed cost outweighs the lookups it saves
PAIR_TRIANGLE_FROM = 9


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
        dim = self.dim
        for idx in (*rows, *cols):
            if not 0 <= idx < dim:
                raise IndexError(f"index {idx} outside [0, {dim - 1}]")

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        self._check_indices(rows, cols)
        return [[self.entry(i, j) for j in cols] for i in rows]

    def terms(self, rows: Sequence[int], values: Sequence[int]) -> list[tuple[int, int]]:
        """The sparse row vector with values[i] at row rows[i], as `combine`
        reads it: one (x point, span + log value) pair per nonzero value,
        span = order - 1. Zero values have no log and are left out."""
        log = self.field.log
        span = self.field.order - 1
        xs = self.xs
        return [(xs[r], span + log[v]) for r, v in zip(rows, values) if v]

    def combine(self, terms: Sequence[tuple[int, int]], cols: Sequence[int]) -> list[int]:
        """Row vector times the matrix, restricted to `cols`.

        The vector comes as `terms`, the pairs (p, l) that `terms()` builds;
        column c gets the sum over them of g^l / (p + y_c), one antilog
        lookup each: l lies in [span, 2 * span) and log(p + y_c) < span, so
        the index stays inside the doubled antilog table.
        """
        exp, log = self.field.exp, self.field.log
        ys = self.ys
        out = []
        for c in cols:
            z = ys[c]
            acc = 0
            for p, l in terms:
                acc ^= exp[l - log[p ^ z]]
            out.append(acc)
        return out

    def solve_combination(
        self, rows: Sequence[int], cols: Sequence[int], rhs: Sequence[int]
    ) -> list[int]:
        """The x over `rows` with combine(terms(rows, x), cols) == rhs.

        The submatrix C[a][b] = 1 / (u_a + v_b), u = xs over rows and v = ys
        over cols, is Cauchy, so over GF(2^e)
        (C^-1)[b][a] = A_a * B_b / (u_a + v_b) with
        A_a = prod_k (u_a + v_k) / prod_{k != a} (u_a + u_k) and
        B_b = prod_k (u_k + v_b) / prod_{k != b} (v_b + v_k).
        Hence x_a = A_a * sum_b rhs_b * B_b / (u_a + v_b). In the log domain
        the block L[a][b] = log(u_a + v_b) is built once: its row sums give
        the numerators of A, its column sums those of B, and the final sum
        reads it again, one antilog lookup per term. The denominators visit
        each pair of distinct points once (`_pair_log_sums`). O(n^2), no
        matrix.

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
        block = [[log[u ^ v] for v in vs] for u in us]
        log_a = list(map(sub, map(sum, block), _pair_log_sums(us, log)))
        # g^c / (u_a + v_b) for c in [span, 2 * span) is exp[c - L[a][b]]
        coeffs = [
            span + (log[val] + sum(col) - pairs) % span
            for val, col, pairs in zip(rhs, zip(*block), _pair_log_sums(vs, log))
            if val
        ]
        if len(coeffs) < n:  # a zero rhs_b adds nothing: drop column b
            live = [b for b, val in enumerate(rhs) if val]
            block = [[row[b] for b in live] for row in block]
        out = []
        for la, row in zip(log_a, block):
            s = 0
            for c, l in zip(coeffs, row):
                s ^= exp[c - l]
            out.append(exp[la % span + log[s]] if s else 0)
        return out


def _pair_log_sums(points: Sequence[int], log: Sequence[int]) -> list[int]:
    """For each point, the sum over every other point w of log(point + w).

    Up to `PAIR_TRIANGLE_FROM - 1` points, each point sums its own row,
    which reads every pair twice but starts fastest. From there each
    unordered pair is looked up once, in the lower triangle
    low[a][k] = log(points[a] + points[k]), k < a: point a's sum is row a
    plus column a. A point is never paired with itself, so log[0] is never
    read.
    """
    if len(points) < PAIR_TRIANGLE_FROM:
        return [sum([log[p ^ w] for w in points if w != p]) for p in points]
    low = [[log[p ^ w] for w in points[:a]] for a, p in enumerate(points)]
    cols = list(map(sum, zip_longest(*low, fillvalue=0)))
    cols.append(0)  # the last point heads no column
    return list(map(add, map(sum, low), cols))


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
