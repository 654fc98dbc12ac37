"""Cauchy construction and exact linear algebra, checked against in-test
Laplace determinants and a schoolbook product; the log-domain combine and
the closed-form solve are checked against the scalar `GF.mul` / `GF.inv`
product and the elimination `solve`."""

import itertools
import random

import pytest

from streamfec.cauchy import (
    CauchyMatrix,
    SingularMatrixError,
    build_cauchy,
    solve,
    vec_mat,
)
from streamfec.gf import GF


def laplace_det(fld, mat):
    """Independent determinant by cofactor expansion (no pivoting code)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        acc ^= fld.mul(mat[0][j], laplace_det(fld, minor))  # char 2: no signs
    return acc


def test_dim_one_nonzero():
    a = build_cauchy(1, GF(4), seed=0)
    assert a.dim == 1
    assert a.entry(0, 0) != 0


def test_points_disjoint_and_distinct():
    a = build_cauchy(6, GF(8), seed=3)
    assert len(set(a.xs)) == 6 and len(set(a.ys)) == 6
    assert not set(a.xs) & set(a.ys)


def test_all_square_submatrices_invertible_dim4():
    fld = GF(4)
    a = build_cauchy(4, fld, seed=0)
    idx = range(4)
    for size in (1, 2, 3, 4):
        for rows in itertools.combinations(idx, size):
            for cols in itertools.combinations(idx, size):
                sub = a.submatrix(rows, cols)
                assert laplace_det(fld, sub) != 0, (rows, cols)


def test_random_submatrix_of_dim8_invertible():
    fld = GF(8)
    a = build_cauchy(8, fld, seed=1)
    rng = random.Random(2)
    for _ in range(25):
        rows = sorted(rng.sample(range(8), 3))
        cols = sorted(rng.sample(range(8), 3))
        assert laplace_det(fld, a.submatrix(rows, cols)) != 0


def test_field_too_small():
    with pytest.raises(ValueError):
        build_cauchy(9, GF(4), seed=0)  # needs 18 distinct points in 16


def test_deterministic_for_seed():
    a = build_cauchy(5, GF(8), seed=7)
    b = build_cauchy(5, GF(8), seed=7)
    c = build_cauchy(5, GF(8), seed=8)
    assert (a.xs, a.ys) == (b.xs, b.ys)
    assert (a.xs, a.ys) != (c.xs, c.ys)


def test_submatrix_full_and_single():
    a = build_cauchy(3, GF(8), seed=0)
    full = a.submatrix(range(3), range(3))
    assert full == [[a.entry(i, j) for j in range(3)] for i in range(3)]
    assert a.submatrix([0], [0]) == [[a.field.inv(a.xs[0] ^ a.ys[0])]]
    with pytest.raises(IndexError):
        a.submatrix([0], [3])


def test_vec_mat_unit_vectors_and_zero():
    fld = GF(8)
    a = build_cauchy(4, fld, seed=5)
    m = a.submatrix(range(4), range(4))
    assert vec_mat(fld, [0, 0, 0, 0], m) == [0, 0, 0, 0]
    for i in range(4):
        e = [1 if j == i else 0 for j in range(4)]
        assert vec_mat(fld, e, m) == m[i]


def test_vec_mat_matches_schoolbook():
    fld = GF(4)
    rng = random.Random(9)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(fld.order) for _ in range(cols)] for _ in range(rows)]
        v = [rng.randrange(fld.order) for _ in range(rows)]
        want = [0] * cols
        for j in range(cols):
            for i in range(rows):
                want[j] ^= fld.mul(v[i], m[i][j])
        assert vec_mat(fld, v, m) == want


def test_vec_mat_shape_mismatch():
    with pytest.raises(ValueError):
        vec_mat(GF(4), [1, 2], [[1]])


def test_solve_identity_and_round_trip():
    fld = GF(8)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert solve(fld, ident, [5, 6, 7]) == [5, 6, 7]
    a = build_cauchy(6, fld, seed=4)
    rng = random.Random(3)
    for _ in range(20):
        size = rng.randint(1, 5)
        rows = sorted(rng.sample(range(6), size))
        cols = sorted(rng.sample(range(6), size))
        m = a.submatrix(rows, cols)
        x = [rng.randrange(fld.order) for _ in range(size)]
        rhs = [0] * size
        for i in range(size):
            for j in range(size):
                rhs[i] ^= fld.mul(m[i][j], x[j])
        assert solve(fld, m, rhs) == x


def test_row_vector_recoverable_from_its_combination():
    # vec_mat gives the row-vector image; solving the transposed system
    # brings the vector back, for any equally sized row/column index sets
    fld = GF(8)
    a = build_cauchy(6, fld, seed=2)
    rng = random.Random(8)
    for _ in range(15):
        size = rng.randint(1, 5)
        rows = sorted(rng.sample(range(6), size))
        cols = sorted(rng.sample(range(6), size))
        m = a.submatrix(rows, cols)
        v = [rng.randrange(fld.order) for _ in range(size)]
        rhs = vec_mat(fld, v, m)
        transposed = [[m[r][c] for r in range(size)] for c in range(size)]
        assert solve(fld, transposed, rhs) == v


def test_solve_singular_raises():
    fld = GF(8)
    m = [[1, 2], [1, 2]]  # duplicated row, not a Cauchy submatrix
    with pytest.raises(SingularMatrixError):
        solve(fld, m, [1, 1])
    with pytest.raises(SingularMatrixError):  # singular and inconsistent
        solve(fld, m, [1, 2])


def test_combine_matches_dense_product():
    # the log-domain combine against the scalar GF.mul / GF.inv product,
    # with zero values among the pairs and non-contiguous columns
    for degree in (8, 16):
        fld = GF(degree)
        a = build_cauchy(40, fld, seed=11)
        rng = random.Random(4)
        vec = [rng.randrange(fld.order) if rng.random() < 0.7 else 0 for _ in range(40)]
        assert 0 in vec
        for size in (1, 3, 17):
            cols = rng.sample(range(40), size)
            dense = vec_mat(fld, vec, a.submatrix(range(40), cols))
            sparse = a.combine([(i, v) for i, v in enumerate(vec)], cols)
            assert dense == sparse


SOLVE_CASES = [(4, n) for n in (1, 2, 3, 8)] + [
    (degree, n) for degree in (8, 16) for n in (1, 2, 3, 17, 64)
] + [(16, 256)]


@pytest.mark.parametrize("degree,n", SOLVE_CASES)
def test_solve_combination_matches_elimination(degree, n):
    # GF(2^4) hosts at most 8 x 8 Cauchy matrices, hence its smaller sizes
    fld = GF(degree)
    dim = min(fld.order // 2, max(2 * n, 8))
    a = build_cauchy(dim, fld, seed=n)
    rng = random.Random(degree * 1000 + n)
    rows = rng.sample(range(dim), n)
    cols = rng.sample(range(dim), n)
    rhs = [rng.randrange(fld.order) if rng.random() < 0.8 else 0 for _ in range(n)]
    rhs[0] = 0
    x = a.solve_combination(rows, cols, rhs)
    transposed = [list(col) for col in zip(*a.submatrix(rows, cols))]
    assert x == solve(fld, transposed, rhs)
    assert a.combine(zip(rows, x), cols) == rhs
    assert a.solve_combination(rows, cols, [0] * n) == [0] * n


def test_solve_combination_rejects_malformed_systems():
    a = build_cauchy(6, GF(8), seed=0)
    with pytest.raises(ValueError):
        a.solve_combination([0, 1], [2], [1, 1])
    with pytest.raises(ValueError):
        a.solve_combination([0, 1], [2, 3], [1])
    with pytest.raises(ValueError):
        a.solve_combination([0, 0], [2, 3], [1, 1])
    with pytest.raises(ValueError):
        a.solve_combination([0, 1], [3, 3], [1, 1])
    with pytest.raises(IndexError):
        a.solve_combination([0, 6], [2, 3], [1, 1])
    with pytest.raises(IndexError):
        a.solve_combination([0, 1], [-1, 3], [1, 1])


def test_overlapping_point_sets_rejected():
    fld = GF(8)
    with pytest.raises(ValueError):
        CauchyMatrix(fld, (1, 2), (2, 3))
