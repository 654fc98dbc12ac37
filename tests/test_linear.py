"""Incremental elimination decoder and rowspace membership."""

import random

import pytest

from streamfec.gf import GF
from streamfec.linear import IncrementalDecoder, InconsistentSystemError, in_rowspace


def test_in_rowspace_basics():
    fld = GF(4)
    rows = [[1, 0, 2], [0, 1, 3]]
    assert in_rowspace(fld, rows, [1, 1, 2 ^ 3])
    assert not in_rowspace(fld, rows, [0, 0, 1])
    assert in_rowspace(fld, [], [0, 0, 0])
    assert not in_rowspace(fld, [], [1, 0, 0])


def test_decoder_pins_unknowns_progressively():
    fld = GF(8)
    dec = IncrementalDecoder(fld, 3)
    assert dec.add_equation([1, 1, 0], 5) is True
    assert dec.determined() == {}
    assert dec.add_equation([0, 1, 0], 3) is True
    got = dec.determined()
    assert got == {0: 5 ^ 3, 1: 3}
    dec.add_equation([0, 0, 7], fld.mul(7, 9))
    assert dec.determined() == {0: 5 ^ 3, 1: 3, 2: 9}


def test_decoder_redundant_consistent_equation_is_absorbed():
    fld = GF(8)
    dec = IncrementalDecoder(fld, 2)
    assert dec.add_equation([1, 1], 4) is True
    assert dec.add_equation([1, 1], 4) is False  # no new information, no error
    assert dec.determined() == {}


def test_decoder_rejects_contradiction():
    fld = GF(8)
    dec = IncrementalDecoder(fld, 2)
    dec.add_equation([1, 1], 4)
    with pytest.raises(InconsistentSystemError):
        dec.add_equation([1, 1], 5)


def test_decoder_solves_random_systems():
    fld = GF(8)
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 6)
        x = [rng.randrange(fld.order) for _ in range(n)]
        dec = IncrementalDecoder(fld, n)
        for _ in range(n + 3):
            coeffs = [rng.randrange(fld.order) for _ in range(n)]
            val = 0
            for c, xv in zip(coeffs, x):
                val ^= fld.mul(c, xv)
            dec.add_equation(coeffs, val)
        got = dec.determined()
        for j, xv in enumerate(x):
            if j in got:
                assert got[j] == xv


def _found(dec):
    return {j: v for j in range(dec.n) if (v := dec.value_of(j)) is not None}


@pytest.mark.parametrize("degree", [4, 8])
def test_value_of_agrees_with_determined_after_every_equation(degree):
    # sparse random rows pin unknowns one by one; dependent rows, all-zero
    # rows and contradicting rows must leave the two views in step
    fld = GF(degree)
    rng = random.Random(degree)
    for _ in range(30):
        n = rng.randint(1, 8)
        x = [rng.randrange(fld.order) for _ in range(n)]
        dec = IncrementalDecoder(fld, n)
        sent: list[tuple[list[int], int]] = []
        assert _found(dec) == dec.determined() == {}
        for _ in range(2 * n + 4):
            kind = rng.choice(("sparse", "sparse", "dense", "dependent", "zero", "contradiction"))
            if kind == "zero":
                coeffs = [0] * n
            elif kind == "dependent" and sent:
                coeffs = [0] * n
                for row, _ in rng.sample(sent, rng.randint(1, len(sent))):
                    f = rng.randrange(1, fld.order)
                    coeffs = [a ^ fld.mul(f, c) for a, c in zip(coeffs, row)]
            elif kind == "sparse":
                coeffs = [rng.randrange(fld.order) if rng.random() < 0.3 else 0 for _ in range(n)]
            else:
                coeffs = [rng.randrange(fld.order) for _ in range(n)]
            val = 0
            for c, xv in zip(coeffs, x):
                val ^= fld.mul(c, xv)
            if kind == "contradiction" and sent:
                row, val = rng.choice(sent)
                with pytest.raises(InconsistentSystemError):
                    dec.add_equation(row, val ^ rng.randrange(1, fld.order))
            else:
                dec.add_equation(coeffs, val)
                sent.append((coeffs, val))
            got = dec.determined()
            assert _found(dec) == got
            assert all(x[j] == v for j, v in got.items())
