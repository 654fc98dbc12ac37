"""Exact linear algebra over GF(2^e): the package's one elimination core.

The incremental decoder is the generic receiver for any linear scheme: feed
it each received channel symbol as an equation over the flat message symbol
vector and ask which unknowns are pinned down so far. Unknown j is
determined exactly when e_j lies in the rowspace of the received equations;
with the basis kept in reduced row echelon form that is the case when j is
a pivot whose row has no other nonzero entry. Rowspace membership here and
`cauchy.solve` are both answered by the same elimination.
"""

from __future__ import annotations

from typing import Sequence

from .gf import GF


class InconsistentSystemError(Exception):
    """An equation contradicted the ones already absorbed."""


class IncrementalDecoder:
    """Absorbs linear equations one at a time over `n` unknowns."""

    def __init__(self, fld: GF, n: int) -> None:
        self.field = fld
        self.n = n
        self._rows: list[list[int]] = []  # each row: n coefficients + value
        self._pivots: list[int] = []

    def add_equation(self, coeffs: Sequence[int], value: int) -> bool:
        """Absorb coeffs . x = value.

        Returns True when the equation was independent of those absorbed so
        far and False when they already implied it. Raises
        InconsistentSystemError when they contradict it.
        """
        fld = self.field
        r = list(coeffs) + [value]
        for piv, row in zip(self._pivots, self._rows):
            if r[piv]:
                f = r[piv]
                r = [a ^ fld.mul(f, c) for a, c in zip(r, row)]
        piv = next((j for j in range(self.n) if r[j]), None)
        if piv is None:
            if r[self.n]:
                raise InconsistentSystemError("0 = nonzero after reduction")
            return False
        inv_p = fld.inv(r[piv])
        r = [fld.mul(inv_p, v) for v in r]
        for i, row in enumerate(self._rows):
            if row[piv]:
                f = row[piv]
                self._rows[i] = [a ^ fld.mul(f, c) for a, c in zip(row, r)]
        self._rows.append(r)
        self._pivots.append(piv)
        return True

    def determined(self) -> dict[int, int]:
        """Values of every unknown that is uniquely pinned down so far."""
        out: dict[int, int] = {}
        for piv, row in zip(self._pivots, self._rows):
            if all(row[j] == 0 for j in range(self.n) if j != piv):
                out[piv] = row[self.n]
        return out


def in_rowspace(fld: GF, rows: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is `target` a linear combination of `rows`?"""
    dec = IncrementalDecoder(fld, len(target))
    for row in rows:
        dec.add_equation(row, 0)
    return not dec.add_equation(target, 0)
