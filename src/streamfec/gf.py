"""GF(2^e) arithmetic for 1 <= e <= 16, with log/antilog multiplication.

Field elements are plain ints in [0, 2^e); the bits of an element are the
coefficients of a polynomial over GF(2). Addition is XOR. Multiplication
reduces the carry-less product modulo an irreducible polynomial and is
served from log/antilog tables built once at construction. The tables are
generated with schoolbook polynomial multiplication, which stays exposed
(`mul_schoolbook`) as an independent reference for the table path.
"""

from __future__ import annotations

from typing import Sequence

# One irreducible (in fact primitive) polynomial per degree, as bitmasks.
DEFAULT_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def poly_mod(a: int, m: int) -> int:
    """Remainder of carry-less division of a by m over GF(2)."""
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def is_irreducible(poly: int, degree: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..degree//2."""
    if poly.bit_length() != degree + 1:
        return False
    if degree == 1:
        return True
    for q in range(2, 1 << (degree // 2 + 1)):
        if q.bit_length() >= 2 and poly_mod(poly, q) == 0:
            return False
    return True


class GF:
    """The field GF(2^degree) reduced by `poly`.

    Instances are immutable after construction and safe to share across
    threads; all operations are pure functions of their arguments.
    """

    def __init__(self, degree: int, poly: int | None = None) -> None:
        if not 1 <= degree <= 16:
            raise ValueError(f"degree must be in [1, 16], got {degree}")
        if poly is None:
            poly = DEFAULT_POLYS[degree]
        if not is_irreducible(poly, degree):
            raise ValueError(
                f"0x{poly:x} is not an irreducible polynomial of degree {degree}"
            )
        self.degree = degree
        self.poly = poly
        self.order = 1 << degree
        self._exp, self._log = self._build_tables()

    def _build_tables(self) -> tuple[list[int], list[int | None]]:
        span = self.order - 1
        if span == 1:
            return [1, 1], [None, 0]
        for g in range(2, self.order):
            exp = [0] * (2 * span)
            log: list[int | None] = [None] * self.order
            val = 1
            ok = True
            for i in range(span):
                if log[val] is not None:
                    ok = False  # g generates a proper subgroup
                    break
                exp[i] = val
                log[val] = i
                val = self.mul_schoolbook(val, g)
            if ok:
                for i in range(span, 2 * span):
                    exp[i] = exp[i - span]
                return exp, log
        raise AssertionError("no multiplicative generator found")

    @property
    def exp(self) -> list[int]:
        """Antilog table, doubled: exp[i] = g**i for 0 <= i < 2 * (order - 1),
        so a sum of two logs indexes it without a reduction. Read only."""
        return self._exp

    @property
    def log(self) -> list[int | None]:
        """Log table: log[a] is the i with g**i == a, None for a == 0. Read only."""
        return self._log

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def mul_schoolbook(self, a: int, b: int) -> int:
        """Carry-less multiply reduced mod the field polynomial; no tables."""
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.poly
        return acc

    def __repr__(self) -> str:
        return f"GF(2^{self.degree}, poly=0x{self.poly:x})"


def in_field(fld: GF, symbols: Sequence[int]) -> bool:
    """Is every symbol an element of `fld`? One min/max pass, cheap next to
    the arithmetic."""
    return not symbols or (min(symbols) >= 0 and max(symbols) < fld.order)


_FIELD_CACHE: dict[tuple[int, int | None], GF] = {}


def field(degree: int, poly: int | None = None) -> GF:
    """Memoized field constructor (fields are immutable, sharing is safe)."""
    key = (degree, poly)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(degree, poly)
    return _FIELD_CACHE[key]
