"""Field arithmetic: table path against schoolbook, axioms, small-field
exhaustive checks."""

import random

import pytest

from streamfec.gf import GF, DEFAULT_POLYS, field, is_irreducible


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


def test_reducible_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert not is_irreducible(0b10101, 4)
    with pytest.raises(ValueError):
        GF(4, 0b10101)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        GF(0)
    with pytest.raises(ValueError):
        GF(17)


def test_default_polys_all_irreducible():
    for degree, poly in DEFAULT_POLYS.items():
        assert is_irreducible(poly, degree)


def test_field_cache_returns_same_object():
    assert field(8) is field(8)
