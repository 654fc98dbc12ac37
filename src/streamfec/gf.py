"""GF(2^e) arithmetic for 1 <= e <= 16, with log/antilog multiplication.

Field elements are plain ints in [0, 2^e); the bits of an element are the
coefficients of a polynomial over GF(2). Addition is XOR. Multiplication
reduces the carry-less product modulo the degree's one primitive
polynomial (`DEFAULT_POLYS`; there is no custom polynomial) and is served
from log/antilog tables built once at construction. Primitive means that x
generates the multiplicative group, so the tables come from one walk over
the powers of x: each step is a shift, reduced by one XOR with the
polynomial when it reaches the field's degree. The walk is also the one
check of the polynomial: x must have order exactly 2^e - 1, which implies
irreducibility. Schoolbook polynomial multiplication stays exposed
(`mul_schoolbook`) as an independent reference for the table path.

The tables are lists for small fields and 2-byte `array("H")`s from degree
`COMPACT_TABLES_FROM_DEGREE` up. A list holds a pointer per entry to a
separate int object; at degree 16 that is about 5.5 MB, which misses cache
on every lookup of the Cauchy kernels, while the arrays take 384 KB. Below
the threshold the lists fit in cache and are faster, because CPython
specialises list subscripts and not array subscripts. Both containers index
alike and hold the same values; `log[0]` is a placeholder (0), since zero
has no logarithm, and every caller tests a symbol for zero before reading
its log.
"""

from __future__ import annotations

from array import array
from typing import MutableSequence, Sequence

# One primitive polynomial per degree, as bitmasks: x generates the
# multiplicative group, so exp[1] == 2 from degree 2 up.
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

# Tables become 2-byte arrays from this degree up. The `tables` cases of
# `bench/layers.py` time the Cauchy parity combine on lists and arrays,
# interleaved in one process. As recorded in `bench/BENCH_gf_tables.json`,
# on a 2-core x86-64 host with 2 MiB of L2 per core and Python 3.11, the
# combine on arrays took 0.40x the list time at degree 16, 0.96x at 14,
# 1.34x at 13 and 1.46-1.54x at 8-12. GF.mul crosses over at the same
# degree, and the burst solve is even there.
COMPACT_TABLES_FROM_DEGREE = 14


class GF:
    """The field GF(2^degree), reduced by `DEFAULT_POLYS[degree]`; the table
    walk raises ValueError if x does not have order 2^degree - 1 under it.

    Instances are immutable after construction and safe to share across
    threads; all operations are pure functions of their arguments.
    """

    def __init__(self, degree: int) -> None:
        if not 1 <= degree <= 16:
            raise ValueError(f"degree must be in [1, 16], got {degree}")
        self.degree = degree
        self.poly = DEFAULT_POLYS[degree]
        self.order = 1 << degree
        self._exp, self._log = self._build_tables()

    def _build_tables(self) -> tuple[MutableSequence[int], MutableSequence[int]]:
        span = self.order - 1
        if self.degree >= COMPACT_TABLES_FROM_DEGREE:  # zero-filled, with no transient list of ints
            exp, log = array("H", bytes(2 * span)), array("H", bytes(2 * self.order))
        else:
            exp, log = [0] * span, [0] * self.order
        order, poly = self.order, self.poly
        val = 1
        for i in range(span):
            exp[i] = val
            log[val] = i
            val <<= 1
            if val & order:
                val ^= poly
        # x must have order exactly span: no power x**r with 0 < r < span is
        # 1 (else the walk rewrote log[1]), and x**span is. Such an x
        # generates the whole multiplicative group, so the polynomial is
        # primitive, hence irreducible.
        if log[1] or val != 1:
            raise ValueError(f"0x{poly:x} is not a primitive polynomial of degree {self.degree}")
        return exp + exp, log

    @property
    def exp(self) -> Sequence[int]:
        """Antilog table, doubled: exp[i] = x**i for 0 <= i < 2 * (order - 1),
        so a sum of two logs indexes it without a reduction. A list, or an
        array("H") from degree COMPACT_TABLES_FROM_DEGREE up. Read only."""
        return self._exp

    @property
    def log(self) -> Sequence[int]:
        """Log table: log[a] is the i with x**i == a, for a != 0. log[0] is a
        placeholder (0) that no caller may read: test a symbol for zero
        before taking its log. A list, or an array("H") from degree
        COMPACT_TABLES_FROM_DEGREE up. Read only."""
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


def in_field(fld: GF, symbols: Sequence[int]) -> bool:
    """Is every symbol an int element of `fld`?

    One C-speed pass packs the symbols as bytes (degree <= 8) or as a 2-byte
    array, which refuses any non-int, such as a float or a str, and any int
    outside [0, 2^8) or [0, 2^16). Only a field smaller than that needs a
    max pass as well.
    """
    try:
        if fld.degree <= 8:
            bytes(symbols)
        else:
            array("H", symbols)
    except (TypeError, ValueError, OverflowError):
        return False
    return fld.degree in (8, 16) or not symbols or max(symbols) < fld.order


_FIELD_CACHE: dict[int, GF] = {}


def field(degree: int) -> GF:
    """Memoized field constructor (fields are immutable, sharing is safe)."""
    if degree not in _FIELD_CACHE:
        _FIELD_CACHE[degree] = GF(degree)
    return _FIELD_CACHE[degree]
