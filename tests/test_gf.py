"""Field arithmetic: table path against schoolbook, axioms, small-field
exhaustive checks, and the tables' container. The log[0] placeholder is
pinned where the log-domain kernels meet zero symbols:
test_combine_matches_dense_product and
test_packet_values_equal_the_mul_reference at degree 16."""

import random
import sys
from array import array

import pytest

from streamfec.gf import (
    COMPACT_TABLES_FROM_DEGREE,
    DEFAULT_POLYS,
    GF,
    field,
    in_field,
)


def test_add_identity_and_self_inverse():
    gf = GF(8)
    assert gf.add(0x00, 0x57) == 0x57
    for a in (0, 1, 0x57, 0xFF):
        assert gf.add(a, a) == 0


def test_add_is_xor():
    gf = GF(8)
    assert gf.add(0x03, 0x05) == 0x06


def test_mul_identities():
    gf = GF(8)
    for b in (0, 1, 2, 0x53, 0xFF):
        assert gf.mul(1, b) == b
        assert gf.mul(0, b) == 0


def test_inv_exhaustive_small_fields():
    for degree in (1, 2, 3, 4, 8):
        gf = GF(degree)
        for a in range(1, gf.order):
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.inv(gf.inv(a)) == a


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(4).inv(0)


def test_inv_undoes_mul_on_grid():
    gf = GF(8)
    rng = random.Random(1)
    for _ in range(500):
        a = rng.randrange(1, gf.order)
        b = rng.randrange(gf.order)
        assert gf.mul(gf.inv(a), gf.mul(a, b)) == b


def test_table_mul_matches_schoolbook():
    for degree in (2, 4, 8):
        gf = GF(degree)
        if gf.order <= 64:
            pairs = [(a, b) for a in range(gf.order) for b in range(gf.order)]
        else:
            rng = random.Random(degree)
            pairs = [
                (rng.randrange(gf.order), rng.randrange(gf.order))
                for _ in range(4000)
            ]
        for a, b in pairs:
            assert gf.mul(a, b) == gf.mul_schoolbook(a, b)


def test_axioms_random_triples():
    gf = GF(16)
    rng = random.Random(42)
    for _ in range(2000):
        a, b, c = (rng.randrange(gf.order) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


def test_multiplicative_group_order():
    for degree in (2, 3, 4, 6, 8, 10, 12):
        gf = GF(degree)
        rng = random.Random(degree)
        for _ in range(5):
            g = rng.randrange(1, gf.order)
            acc = 1
            for _ in range(gf.order - 1):
                acc = gf.mul(acc, g)
            assert acc == 1


@pytest.mark.parametrize(
    "degree,poly",
    [
        (4, 0b10101),  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        (8, 0x11B),  # the AES polynomial, irreducible: x has order 51, not 255
        (4, 0b11111),  # x^4 + x^3 + x^2 + x + 1, irreducible: x has order 5, not 15
        (2, 0b100),  # x^2: x is no unit, so the walk never returns to 1
    ],
    ids=["reducible", "order-51", "order-5", "zero-constant"],
)
def test_non_primitive_polynomial_rejected(monkeypatch, degree, poly):
    # the tables walk the powers of x, so x must generate the whole group:
    # the walk refuses an early return to 1, and no return after its last step
    monkeypatch.setitem(DEFAULT_POLYS, degree, poly)
    with pytest.raises(ValueError, match=f"^0x{poly:x} is not a primitive polynomial"):
        GF(degree)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        GF(0)
    with pytest.raises(ValueError):
        GF(17)


def test_default_polys_all_irreducible():
    # primitive, hence irreducible: the powers of x run over every nonzero
    # element once
    for degree, poly in DEFAULT_POLYS.items():
        gf = GF(degree)
        assert gf.poly == poly
        assert sorted(gf.exp[: gf.order - 1]) == list(range(1, gf.order))


def test_field_cache_returns_same_object():
    assert field(8) is field(8)


@pytest.mark.parametrize("degree", range(1, 17))
def test_tables_agree_with_schoolbook(degree):
    # exp walks the powers of x and log inverts it; each step is checked by
    # schoolbook multiplication, exhaustively up to degree 10, on a sample above
    gf = GF(degree)
    span = gf.order - 1
    assert type(gf.exp) is type(gf.log) is (array if degree >= COMPACT_TABLES_FROM_DEGREE else list)
    assert len(gf.exp) == 2 * span and len(gf.log) == gf.order
    assert gf.exp[span:] == gf.exp[:span]
    g = gf.exp[1 % span]
    if degree <= 10:
        steps = range(span)
        assert sorted(gf.exp[:span]) == list(range(1, gf.order))
    else:
        steps = random.Random(degree).sample(range(span), 2000)
    for i in steps:
        assert gf.exp[(i + 1) % span] == gf.mul_schoolbook(gf.exp[i], g)
        assert gf.log[gf.exp[i]] == i


@pytest.mark.parametrize("degree", [8, 16])
def test_mul_and_inv_agree_with_schoolbook(degree):
    gf = GF(degree)
    rng = random.Random(degree)
    for _ in range(3000):
        a, b = rng.randrange(gf.order), rng.randrange(gf.order)
        assert gf.mul(a, b) == gf.mul_schoolbook(a, b)
        if a:
            assert gf.mul_schoolbook(a, gf.inv(a)) == 1


def test_large_field_tables_fit_in_cache():
    gf = GF(16)
    assert sys.getsizeof(gf.exp) + sys.getsizeof(gf.log) < 1 << 20


@pytest.mark.parametrize("degree", [1, 4, 7, 8, 9, 15, 16])
def test_in_field_takes_ints_of_the_field_only(degree):
    gf = GF(degree)
    assert in_field(gf, []) and in_field(gf, [0, gf.order - 1, 1])
    for bad in (gf.order, -1, 1 << 16, 1.5, 1.0, "1", None):
        assert not in_field(gf, [0, bad, 1]), bad
